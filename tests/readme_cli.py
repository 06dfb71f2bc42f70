"""Run each line of the README's ``## CLI`` block as a real process.

    python tests/readme_cli.py

Each ``hooktrees ARGS`` line runs as ``python -W error -m hooktrees ARGS``
with ``src/`` on the path, so the package import and ``__main__`` run with
warnings as errors.  A line passes when it exits 0 with nothing on stderr
and, where its comment reads ``-> X``, prints exactly X.  Then each argv in
``USAGE_ERRORS`` runs the same way, and passes when it exits 2 with empty
stdout and exactly one ``error:`` line on stderr: argparse reports these
from different places across Python versions.  Prints one line per command
and exits 1 if any failed.  Uses only the standard library; ``test_cli.py``
reads the README through the same two helpers.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

USAGE_ERRORS = [
    [],
    ["nope"],
    ["verify", "nope", "1", "2", "both"],
    ["verify", "han4", "1", "x", "both"],
    ["verify", "han4", "1", "2"],
    ["--brute-cap", "0", "enumerate", "1"],
    ["--format", "xml", "rank", "10"],
    ["--seed", "7", "fibers", "4"],
    ["rank", "10", "10"],
    ["table", "han4", "-1"],
    ["unrank", "1000000000000000000000", "0"],
]


def readme_section(title):
    return (ROOT / "README.md").read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_cli_examples():
    # (argv, expected stdout or None) per line of the CLI block; a comment
    # "-> X" gives the expected output.
    block = readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[0] != "hooktrees":
            raise ValueError(f"README CLI line does not start with hooktrees: {line!r}")
        expected = comment.strip()[3:] if comment.strip().startswith("-> ") else None
        examples.append((argv[1:], expected))
    return examples


def main():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    failed = 0
    cases = [(argv, expected, False) for argv, expected in readme_cli_examples()]
    cases += [(argv, None, True) for argv in USAGE_ERRORS]
    for argv, expected, usage_error in cases:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "hooktrees", *argv],
                              capture_output=True, text=True, env=env, timeout=600)
        if usage_error:
            ok = (proc.returncode, proc.stdout) == (2, "") and (
                proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1)
        else:
            ok = (proc.returncode, proc.stderr) == (0, "") and (
                expected is None or proc.stdout == expected + "\n")
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'}\thooktrees {shlex.join(argv)}", flush=True)
        if not ok:
            print(f"exit {proc.returncode}\n{proc.stderr}{proc.stdout[:500]}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

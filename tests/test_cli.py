import ast
import importlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import textwrap
import types
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import hooktrees
from hooktrees import catalan, encode, identities, iter_trees
from hooktrees.cli import (
    EXIT_FAILED,
    EXIT_INTERRUPT,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    build_parser,
    main,
)

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


@pytest.fixture
def broken_han4(monkeypatch):
    # han4 with rhs(n) = n: the identity holds at n = 1 only.
    broken = identities.HookIdentity(
        name="han4",
        weight=identities.get_identity("han4").weight,
        prefactor=lambda n: Fraction(1),
        rhs=lambda n: Fraction(n),
    )
    monkeypatch.setitem(identities._BUILTINS, "han4", broken)


class TestVerifyCommand:
    def test_pass_stream(self, capsys):
        code, out, err = run(capsys, "verify", "han4", "1", "6", "both")
        assert code == EXIT_OK
        assert out == [f"han4\t{n}\tboth\tPASS" for n in range(1, 7)]
        assert err == ""

    def test_recurrence_large_range(self, capsys):
        code, out, _ = run(capsys, "verify", "han5", "1", "40", "recurrence")
        assert code == EXIT_OK
        assert len(out) == 40
        assert all(line.endswith("PASS") for line in out)

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "riemann", "1", "3", "both"])
        assert excinfo.value.code == EXIT_USAGE

    def test_cap_violation_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--brute-cap", "4", "verify", "han4", "1", "9", "brute")
        assert code == EXIT_USAGE
        assert len(out) == 4  # n=1..4 streamed before the refusal
        assert "cap 4" in err

    def test_verification_failure_exits_one(self, capsys, broken_han4):
        code, out, _ = run(capsys, "verify", "han4", "1", "3", "recurrence")
        assert code == EXIT_FAILED
        assert out[0] == "han4\t1\trecurrence\tPASS"
        assert out[1].startswith("han4\t2\trecurrence\tFAIL\t1/2\t2/1")

    def test_route_disagreement_names_both_routes(self, capsys, monkeypatch):
        monkeypatch.setattr(identities, "eval_brute", lambda w, n, cap=None: Fraction(1, 3))
        code, out, _ = run(capsys, "verify", "han4", "3", "3", "both")
        assert code == EXIT_FAILED
        assert out == ["han4\t3\tboth\tFAIL\t1/6\t1/6\t1/3\t1/6"]
        code, out, _ = run(capsys, "--format", "json", "verify", "han4", "3", "3", "both")
        assert code == EXIT_FAILED
        assert json.loads(out[0]) == {
            "identity": "han4",
            "n": 3,
            "mode": "both",
            "status": "FAIL",
            "lhs": "1/6",
            "rhs": "1/6",
            "brute": "1/3",
            "recurrence": "1/6",
        }

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "catalan", "0", "3", "both")
        assert code == EXIT_OK
        payloads = [json.loads(line) for line in out]
        assert [p["n"] for p in payloads] == [0, 1, 2, 3]
        assert payloads[3] == {
            "identity": "catalan",
            "n": 3,
            "mode": "both",
            "status": "PASS",
            "lhs": "5/1",
            "rhs": "5/1",
        }


class TestEnumerateCommand:
    def test_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        assert code == EXIT_OK
        assert out == ["101010", "101100", "110010", "110100", "111000"]

    def test_zero_prints_empty_code(self, capsys):
        code, out, _ = run(capsys, "enumerate", "0")
        assert code == EXIT_OK
        assert out == [""]

    def test_count_at_ten(self, capsys):
        code, out, _ = run(capsys, "enumerate", "10")
        assert code == EXIT_OK
        assert len(out) == 16796

    def test_cap_refusal(self, capsys):
        code, out, err = run(capsys, "--brute-cap", "6", "enumerate", "7")
        assert code == EXIT_USAGE
        assert out == []
        assert "cap 6" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate", "1")
        assert code == EXIT_OK
        assert json.loads(out[0]) == {"code": "10"}

    @pytest.mark.parametrize("n", [0, 1, 3, 10])
    def test_codes_match_encoded_trees(self, capsys, n):
        expected = [encode(t) for t in iter_trees(n)]
        code, out, _ = run(capsys, "enumerate", str(n))
        assert code == EXIT_OK
        assert out == expected
        code, out, _ = run(capsys, "--format", "json", "enumerate", str(n))
        assert code == EXIT_OK
        assert out == [json.dumps({"code": c}) for c in expected]

    def test_negative_rejected(self, capsys):
        code, out, err = run(capsys, "enumerate", "-1")
        assert code == EXIT_USAGE
        assert out == []
        assert err == "error: n must be nonnegative\n"


class TestFibersCommand:
    def test_three(self, capsys):
        code, out, _ = run(capsys, "fibers", "3")
        assert code == EXIT_OK
        assert out == [
            "101010\t1",
            "101100\t1",
            "110010\t2",
            "110100\t1",
            "111000\t1",
            "total\t6",
        ]

    def test_one(self, capsys):
        code, out, _ = run(capsys, "fibers", "1")
        assert code == EXIT_OK
        assert out == ["10\t1", "total\t1"]

    def test_total_is_factorial(self, capsys):
        code, out, _ = run(capsys, "fibers", "6")
        assert code == EXIT_OK
        assert out[-1] == f"total\t{factorial(6)}"

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "--fiber-cap", "3", "fibers", "4")
        assert code == EXIT_USAGE
        assert "fiber cap 3" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "fibers", "2")
        assert code == EXIT_OK
        assert [json.loads(line) for line in out] == [
            {"code": "1010", "count": 1},
            {"code": "1100", "count": 1},
            {"total": 2},
        ]


class TestTableCommand:
    def test_han4_shows_golden_row(self, capsys):
        code, out, _ = run(capsys, "table", "han4", "5")
        assert code == EXIT_OK
        assert len(out) == 6
        assert out[3] == "3\t1/6\t1/6\t1/6\tPASS"

    def test_han5_shows_golden_row(self, capsys):
        code, out, _ = run(capsys, "table", "han5", "3")
        assert code == EXIT_OK
        assert out[3].startswith("3\t1/5040\t")

    def test_catalan_row_five(self, capsys):
        code, out, _ = run(capsys, "table", "catalan", "5")
        assert code == EXIT_OK
        assert out[5] == "5\t42/1\t42/1\t42/1\tPASS"

    def test_failure_exits_one(self, capsys, broken_han4):
        code, out, _ = run(capsys, "table", "han4", "1")  # the last row passes
        assert code == EXIT_FAILED
        assert out == ["0\t1/1\t1/1\t0/1\tFAIL", "1\t1/1\t1/1\t1/1\tPASS"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table", "postnikov", "3")
        assert code == EXIT_OK
        assert json.loads(out[3]) == {
            "n": 3,
            "sum": "64/3",
            "lhs": "16/1",
            "rhs": "16/1",
            "match": True,
        }


class TestRankUnrankCommands:
    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "111000")
        assert code == EXIT_OK
        assert out == ["4"]

    def test_rank_invalid_code(self, capsys):
        code, _, err = run(capsys, "rank", "1001")
        assert code == EXIT_USAGE
        assert "ballot" in err

    def test_unrank(self, capsys):
        code, out, _ = run(capsys, "unrank", "3", "4")
        assert code == EXIT_OK
        assert out == ["111000"]

    def test_unrank_out_of_range(self, capsys):
        code, _, err = run(capsys, "unrank", "3", "5")
        assert code == EXIT_USAGE
        assert "out of range" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "rank", "111000")
        assert code == EXIT_OK
        assert [json.loads(line) for line in out] == [{"rank": 4}]
        code, out, _ = run(capsys, "--format", "json", "unrank", "3", "4")
        assert code == EXIT_OK
        assert [json.loads(line) for line in out] == [{"code": "111000"}]

    def test_roundtrip_through_text(self, capsys):
        code, out, _ = run(capsys, "unrank", "9", "1234")
        assert code == EXIT_OK
        code, out, _ = run(capsys, "rank", out[0])
        assert out == ["1234"]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    def test_ranks_past_the_int_str_digit_limit(self, capsys):
        n = 1100
        chain = "1" * n + "0" * n
        last = str(catalan(n) - 1)  # 659 digits
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "rank", chain)
            assert (code, out) == (EXIT_OK, [last])
            code, out, _ = run(capsys, "unrank", str(n), last)
            assert (code, out) == (EXIT_OK, [chain])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)

    def test_runs_without_a_digit_limit_setter(self, capsys, monkeypatch):
        # Pythons before 3.10.7 have neither accessor.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        assert run(capsys, "rank", "111000")[:2] == (EXIT_OK, ["4"])


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "han4", "-1"],
        ["enumerate", "-1"],
        ["fibers", "9"],
        ["rank", "1x0"],
        ["rank", "1"],
        ["unrank", "3", "5"],
        ["verify", "han4", "5", "3", "both"],
        ["--brute-cap", "6", "enumerate", "7"],
    ],
)
def test_library_errors_are_one_line_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == []
    assert err.startswith("error: ") and err.count("\n") == 1


class TestPublicSurface:
    def test_console_script_is_cli_main(self):
        # A regex, not tomllib: Python 3.10 has no TOML reader.
        target = re.search(
            r'^\[project\.scripts\]\nhooktrees = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M
        )
        assert target is not None
        module, attribute = target.groups()
        assert getattr(importlib.import_module(module), attribute) is main

    def test_all_names_every_public_binding_once(self):
        public = {
            name
            for name, value in vars(hooktrees).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert len(hooktrees.__all__) == len(set(hooktrees.__all__))
        assert set(hooktrees.__all__) == public


class TestConfig:
    def test_defaults(self):
        args = build_parser().parse_args(["enumerate", "3"])
        assert args.brute_cap == 14
        assert args.fiber_cap == 8
        assert args.format == "tsv"

    def test_validation(self):
        for argv in (["--fiber-cap", "0"], ["--format", "xml"]):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "enumerate", "3"])
            assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--seed", "--labeling-cap"])
    def test_removed_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, "7", "fibers", "4"])
        assert excinfo.value.code == EXIT_USAGE

    def test_readme_lists_exactly_the_cli_flags(self):
        section = readme_section("CLI")
        documented = set(re.findall(r"--[a-z][a-z-]*", section))
        parser_flags = {
            flag
            for action in build_parser()._actions
            for flag in action.option_strings
            if flag.startswith("--")
        }
        assert documented == parser_flags - {"--help"}

    def test_flags_reach_config(self, capsys):
        # caps only tighten behavior; a permissive cap lets the command run
        code, out, _ = run(capsys, "--fiber-cap", "9", "fibers", "4")
        assert code == EXIT_OK
        assert out[-1] == "total\t24"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--brute-cap", "1", "verify", "han4", "1", "1", "both"], ["han4\t1\tboth\tPASS"]),
            (["--brute-cap", "3", "enumerate", "3"], ["101010", "101100", "110010", "110100", "111000"]),
            (["--fiber-cap", "1", "fibers", "1"], ["10\t1", "total\t1"]),
        ],
    )
    def test_cap_allows_n_equal_to_cap(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == expected

    def test_exit_codes_are_the_documented_ones(self):
        assert (EXIT_OK, EXIT_FAILED, EXIT_USAGE, EXIT_INTERRUPT, EXIT_PIPE) == (0, 1, 2, 130, 141)

    def test_bad_flag_value_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--brute-cap", "0", "enumerate", "3"])
        assert excinfo.value.code == EXIT_USAGE

    def test_output_deterministic(self, capsys):
        first = run(capsys, "verify", "postnikov", "1", "6", "both")
        second = run(capsys, "verify", "postnikov", "1", "6", "both")
        assert first == second


def readme_section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_cli_examples():
    # (argv, expected stdout or None) per line of the CLI block; a comment
    # "-> X" gives the expected output.
    block = readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "hooktrees"
        expected = comment.strip()[3:] if comment.strip().startswith("-> ") else None
        examples.append((argv[1:], expected))
    return examples


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "argv,expected", [pytest.param(a, e, id=" ".join(a)) for a, e in readme_cli_examples()]
    )
    def test_example_runs(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert err == ""
        if expected is not None:
            assert out == [expected]

    def test_examples_cover_the_documented_outputs(self):
        examples = readme_cli_examples()
        assert (["rank", "111000"], "4") in examples
        assert (["unrank", "3", "4"], "111000") in examples

    def test_enumerate_prints_the_tour_codes(self, capsys):
        tour = readme_section("Library quick tour")
        listing = tour.split("ht.iter_trees(3)]\n# ", 1)[1].split("\n", 1)[0]
        assert (["enumerate", "3"], None) in readme_cli_examples()
        code, out, _ = run(capsys, "enumerate", "3")
        assert code == EXIT_OK
        assert out == ast.literal_eval(listing)
        assert len(out) == 5


def child_env():
    # Block-buffered stdout, so that output still held in the buffer meets
    # the closed pipe only when it is flushed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(*argv):
    return subprocess.Popen(
        [sys.executable, "-m", "hooktrees", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )


class TestClosedPipe:
    # 128 + SIGPIPE, the status a shell reports for `yes | head -1`.
    def test_reader_closes_after_one_line(self):
        with spawn("enumerate", "12") as proc:
            assert proc.stdout.readline() == b"10" * 12 + b"\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141

    def test_reader_closes_before_any_output(self):
        with spawn("verify", "han4", "1", "3", "both") as proc:
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141

    def test_usage_error_after_output_keeps_its_message(self):
        # Four records wait in the buffer when the cap refuses n = 5.
        with spawn("--brute-cap", "4", "verify", "han4", "1", "6", "both") as proc:
            proc.stdout.close()
            assert proc.stderr.read() == (
                b"error: n=5 exceeds the brute-force cap 4; pass a larger cap to override\n"
            )
            assert proc.wait(timeout=60) == 141

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_exit_leaks_no_descriptor(self):
        # Two in-process calls, each into a pipe whose reader is gone.
        script = textwrap.dedent("""
            import json, os, sys
            from hooktrees.cli import main

            def into_closed_pipe():
                read, write = os.pipe()
                os.close(read)
                os.dup2(write, sys.stdout.fileno())
                os.close(write)
                return main(["enumerate", "6"])

            before = len(os.listdir("/proc/self/fd"))
            codes = [into_closed_pipe() for _ in range(2)]
            after = len(os.listdir("/proc/self/fd"))
            print(json.dumps([codes, before, after]), file=sys.stderr)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=child_env(), timeout=60)
        codes, before, after = json.loads(proc.stderr)
        assert codes == [141, 141]
        assert after == before


class TestInterrupt:
    def test_ctrl_c_exits_130_with_one_line(self):
        # The child prints one record, then blocks on a pipe that nobody
        # writes to, so the signal always lands while main is running.
        script = textwrap.dedent("""
            import os, sys
            from hooktrees import cli

            emit, (never, _) = cli._emit, os.pipe()

            def emit_then_block(*args):
                emit(*args)
                sys.stdout.flush()
                os.read(never, 1)

            cli._emit = emit_then_block
            sys.exit(cli.main(["verify", "han4", "1", "3", "recurrence"]))
        """)
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=child_env()) as proc:
            assert proc.stdout.readline().startswith(b"han4\t1\trecurrence\tPASS")
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            assert out == b""
            assert err == b"error: interrupted\n"
            assert proc.returncode == EXIT_INTERRUPT

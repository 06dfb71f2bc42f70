"""The three benchmark workloads: op streams, op execution and exact checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Ops come in blocks that are balanced by
construction (each block holds every op kind and every size class in a
fixed proportion, shuffled by the seed), and continuous sizes follow a
golden-ratio sequence from a seeded offset.  Two seeds therefore give
different ops with the same cost mix, which keeps medians steady from
run to run.

brute-mix
    Loads ``trees`` (iter_trees, subtree_sizes) and the brute reduction,
    in process with warm pools.  Each op draws n evenly from {9, 10, 11}
    and a weight that is never reused: a fresh wrapper around a built-in
    (checked against its closed form and its identity) or a fresh
    ``random_hook_weight``.  Both routes must agree.  One op in six is
    ``verify_eq2(n)``.  Ops share n but never weights, so per-n caching of
    hook multisets (ROADMAP item 3) can show a gain that a memo keyed on
    the weight cannot fake.  The median falls in the n=10 mode and the
    tail in the n=11 mode.  Item 2 should not move it.
recurrence-deep
    Loads ``SumTable`` only: ``verify(id, 1, N, "recurrence")`` on a fresh
    table, all five built-ins, N spread over [100, 300].  The trees layer
    makes no call.  Item 2 (integer recurrence) should move it; item 3
    should not.
cli-cold
    One ``python -m hooktrees ...`` process per op with a clean
    environment, so every op pays interpreter start, import and pool
    build.  Carries the ``cli`` layer, the codec, rank/unrank on chains up
    to n=1000 (item 5) and ``shape_fiber_histogram``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Iterator, Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
clock = time.perf_counter

BUILTINS = ("catalan", "labelings", "postnikov", "han4", "han5")
GOLDEN = 0.6180339887498949
STRATA = 5
OP_TIMEOUT_S = 120


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def closed_form(name: str, n: int) -> tuple[Fraction, Fraction]:
    """(S(n), rhs(n)) of a built-in identity, from its closed form alone."""
    if name == "catalan":
        return Fraction(catalan_number(n)), Fraction(catalan_number(n))
    if name == "labelings":
        return Fraction(1), Fraction(factorial(n))
    if name == "postnikov":
        rhs = Fraction(n + 1) ** (n - 1)
        return rhs * 2**n / factorial(n), rhs
    if name == "han4":
        return Fraction(1, factorial(n)), Fraction(1, factorial(n))
    if name == "han5":
        return Fraction(1, factorial(2 * n + 1)), Fraction(1, factorial(2 * n + 1))
    raise ValueError(f"no closed form for {name!r}")


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def is_tree_code(code: str, n: int) -> bool:
    """Length 2n, n ones, and no prefix with more zeros than ones."""
    if len(code) != 2 * n or code.count("1") != n:
        return False
    height = 0
    for bit in code:
        height += 1 if bit == "1" else -1 if bit == "0" else -(2 * n + 1)
        if height < 0:
            return False
    return True


def import_hooktrees(root: Path = ROOT):
    """Import the package from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hooktrees

    location = Path(hooktrees.__file__).resolve()
    if src not in location.parents:
        raise RuntimeError(f"imported hooktrees from {location}, not from {src}")
    return hooktrees


def _warm(workload, op: dict) -> None:
    message = workload.check(op, workload.run(op))
    if message:
        raise RuntimeError(f"{workload.name} warm-up failed: {message}")


class _Spread:
    """Golden-ratio points in [lo, hi] from a seeded offset, per key."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._state: dict[str, list[float]] = {}

    def unit(self, key: str) -> float:
        state = self._state.setdefault(key, [self._rng.random(), 0])
        state[1] += 1
        return (state[0] + (state[1] - 1) * GOLDEN) % 1.0

    def int(self, key: str, lo: int, hi: int) -> int:
        return lo + int(self.unit(key) * (hi - lo + 1))

    def identity(self, key: str) -> str:
        return BUILTINS[self.int(key, 0, len(BUILTINS) - 1)]


def run_ops(workload, ops, tracer=None):
    """Run ops in order; return per-op wall times and failure messages.

    Only ``workload.run`` is timed; ``workload.check`` compares its output
    with the expected value afterwards.  An exception in either is a
    failure of that op, never of the benchmark.
    """
    samples, failures = [], []
    for op in ops:
        message = None
        t0 = clock()
        try:
            if tracer is None:
                output = workload.run(op)
            else:
                with tracer.span("op"):
                    output = workload.run(op)
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
        samples.append(clock() - t0)
        if message is None:
            try:
                message = workload.check(op, output)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
        if message:
            failures.append(message)
    return samples, failures


NO_CLI = {"interp_s": 0.0, "import_s": 0.0, "main_s": 0.0}


class InProcess:
    """A workload that calls the library in this process."""

    route_disagreements = 0
    stdout_bytes = 0
    rusage_who = resource.RUSAGE_SELF

    @property
    def package_file(self) -> str:
        return self.ht.__file__

    def run_traced(self, ops):
        """Run ops with wrappers installed; return samples, failures, the
        span summary and the CLI timings (none here)."""
        tracer = spans.Tracer()
        tracer.install(self.ht)
        try:
            samples, failures = run_ops(self, ops, tracer)
        finally:
            tracer.uninstall()
        return samples, failures, tracer.summary(), dict(NO_CLI)


class BruteMix(InProcess):
    name = "brute-mix"

    def __init__(self, tiny: bool = False):
        self.ns = (4, 5, 6) if tiny else (9, 10, 11)
        self.trace_blocks = 1

    def setup(self):
        self.ht = import_hooktrees()
        self.identities = {name: self.ht.get_identity(name) for name in BUILTINS}
        # Fill the tree pools and anything else the library builds lazily
        # per n, with weights no timed op uses.
        for n in self.ns:
            _warm(self, {"kind": "pair", "n": n, "identity": "han4", "i": -1})
            _warm(self, {"kind": "eq2", "n": n})

    def blocks(self, seed: int) -> Iterator[list[dict]]:
        # Per block and per n: each built-in once, five random weights and
        # two verify_eq2 ops, so every block has the same cost mix.
        rng = random.Random(f"{self.name}/{seed}")
        i = 0
        while True:
            block = []
            for n in self.ns:
                block += [{"kind": "pair", "n": n, "identity": name} for name in BUILTINS]
                block += [{"kind": "pair", "n": n, "wseed": rng.getrandbits(32)} for _ in range(5)]
                block += [{"kind": "eq2", "n": n} for _ in range(2)]
            rng.shuffle(block)
            for op in block:
                op["i"] = i
                i += 1
            yield block

    def run(self, op: dict):
        ht, n = self.ht, op["n"]
        if op["kind"] == "eq2":
            return ht.verify_eq2(n)
        if "identity" in op:
            base = self.identities[op["identity"]]
            weight = ht.HookWeight(f"{base.weight.name}#{op['i']}", base.weight)
            identity = ht.HookIdentity(base.name, weight, base.prefactor, base.rhs)
        else:
            weight = ht.random_hook_weight(op["wseed"], max_h=n)
            identity = None
        table = ht.SumTable(weight)
        brute = ht.eval_brute(weight, n)
        recurrence = ht.eval_recurrence(weight, n, table)
        record = None
        if identity is not None:
            record = next(ht.iter_verify(identity, n, n, "recurrence", table=table))
        return brute, recurrence, record

    def check(self, op: dict, output) -> Optional[str]:
        n = op["n"]
        if op["kind"] == "eq2":
            return None if output is True else f"verify_eq2({n}) returned {output!r}"
        brute, recurrence, record = output
        if brute != recurrence:
            self.route_disagreements += 1
            return f"op {op['i']} n={n}: brute {brute} != recurrence {recurrence}"
        if record is None:
            return None
        if not record.passed:
            return f"{record.identity} n={n}: {record.tsv_line()}"
        expected, _ = closed_form(op["identity"], n)
        if recurrence != expected:
            return f"{record.identity} n={n}: S={recurrence}, closed form {expected}"
        return None


class RecurrenceDeep(InProcess):
    name = "recurrence-deep"

    def __init__(self, tiny: bool = False):
        self.n_range = (5, 20) if tiny else (100, 300)
        self.trace_blocks = 1

    def setup(self):
        self.ht = import_hooktrees()
        self.identities = {name: self.ht.get_identity(name) for name in BUILTINS}
        for identity in self.identities.values():
            for h in range(1, self.n_range[1] + 1):
                identity.weight(h)
            _warm(self, {"kind": "verify", "identity": identity.name, "N": self.n_range[0]})

    def blocks(self, seed: int) -> Iterator[list[dict]]:
        # Per block: every built-in once in each fifth of the N range.
        rng = random.Random(f"{self.name}/{seed}")
        spread = _Spread(rng)
        lo, hi = self.n_range
        width = (hi - lo + 1) / STRATA
        while True:
            block = [{"kind": "verify", "identity": name,
                      "N": lo + int((j + spread.unit(f"{name}/{j}")) * width)}
                     for name in BUILTINS for j in range(STRATA)]
            rng.shuffle(block)
            yield block

    def run(self, op: dict):
        identity = self.identities[op["identity"]]
        table = self.ht.SumTable(identity.weight)
        report = self.ht.verify(identity, 1, op["N"], "recurrence", table=table)
        return report, table.value(op["N"])

    def check(self, op: dict, output) -> Optional[str]:
        (report, s_value), top = output, op["N"]
        if [record.n for record in report.records] != list(range(1, top + 1)):
            return f"{op['identity']} 1..{top}: records for the wrong n"
        if not report.all_passed:
            return f"{op['identity']}: {report.first_failure.tsv_line()}"
        expected, _ = closed_form(op["identity"], top)
        if s_value != expected:
            return f"{op['identity']} n={top}: S={s_value}, closed form {expected}"
        return None


class CliCold:
    name = "cli-cold"
    route_disagreements = 0
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, tiny: bool = False):
        self.sizes = {
            "both": (2, 4), "recurrence": (5, 20), "table": (3, 10), "enumerate": (2, 4),
            "fibers": (2, 4), "chain": (5, 30), "random": (5, 30),
        } if tiny else {
            "both": (6, 10), "recurrence": (50, 200), "table": (20, 150), "enumerate": (5, 9),
            "fibers": (4, 7), "chain": (200, 1000), "random": (50, 1000),
        }
        self.trace_blocks = 1 if tiny else 2
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src")}
        self.previous_code: Optional[str] = None
        self.stdout_bytes = 0
        self.traced = False
        self.trace_total: dict = {}
        self.cli_s = dict(NO_CLI)

    def setup(self):
        probe = subprocess.run(
            [sys.executable, "-c", "import hooktrees; print(hooktrees.__file__)"],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        location = Path(probe.stdout.strip()).resolve()
        if probe.returncode != 0 or (ROOT / "src").resolve() not in location.parents:
            raise RuntimeError(f"hooktrees resolves to {probe.stdout.strip()!r}, not to src/")
        self.package_file = str(location)
        _warm(self, {"kind": "rank", "shape": "left", "n": 3})
        self.stdout_bytes = 0

    def blocks(self, seed: int) -> Iterator[list[dict]]:
        rng = random.Random(f"{self.name}/{seed}")
        spread = _Spread(rng)
        size = self.sizes
        while True:
            n = spread.int("random.n", *size["random"])
            index = rng.randrange(catalan_number(n))
            units = [
                [{"kind": "verify", "identity": spread.identity("both.id"), "mode": "both",
                  "N": spread.int("both", *size["both"])}],
                [{"kind": "verify", "identity": spread.identity("recurrence.id"),
                  "mode": "recurrence", "N": spread.int("recurrence", *size["recurrence"])}],
                [{"kind": "table", "identity": spread.identity("table.id"),
                  "N": spread.int("table", *size["table"])}],
                [{"kind": "enumerate", "n": spread.int("enumerate", *size["enumerate"])}],
                [{"kind": "fibers", "n": spread.int("fibers", *size["fibers"])}],
                [{"kind": "rank", "shape": "left", "n": spread.int("rank.left", *size["chain"])}],
                [{"kind": "rank", "shape": "right", "n": spread.int("rank.right", *size["chain"])}],
                [{"kind": "unrank", "shape": "left",
                  "n": spread.int("unrank.left", *size["chain"])}],
                [{"kind": "unrank", "shape": "random", "n": n, "index": index},
                 {"kind": "rank", "shape": "previous", "expect": index}],
            ]
            rng.shuffle(units)
            yield [op for unit in units for op in unit]

    @staticmethod
    def argv(op: dict, previous: Optional[str]) -> list[str]:
        kind = op["kind"]
        if kind == "verify":
            return ["verify", op["identity"], "1", str(op["N"]), op["mode"]]
        if kind == "table":
            return ["table", op["identity"], str(op["N"])]
        if kind in ("enumerate", "fibers"):
            return [kind, str(op["n"])]
        if kind == "rank":
            codes = {"left": lambda n: "1" * n + "0" * n, "right": lambda n: "10" * n}
            return ["rank", previous if op["shape"] == "previous" else codes[op["shape"]](op["n"])]
        index = catalan_number(op["n"]) - 1 if op["shape"] == "left" else op["index"]
        return ["unrank", str(op["n"]), str(index)]

    def run(self, op: dict):
        previous, self.previous_code = self.previous_code, None
        if op["kind"] == "rank" and op["shape"] == "previous" and previous is None:
            return None
        args = self.argv(op, previous)
        if self.traced:
            command = [sys.executable, str(LAUNCHER), repr(time.monotonic()), *args]
        else:
            command = [sys.executable, "-m", "hooktrees", *args]
        return subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                              timeout=OP_TIMEOUT_S)

    def check(self, op: dict, proc) -> Optional[str]:
        if proc is None:
            return "no code from the preceding unrank"
        self.stdout_bytes += len(proc.stdout)
        stderr = proc.stderr.decode(errors="replace")
        if self.traced:
            self._collect_trace(stderr)
        if proc.returncode != 0:
            return f"{' '.join(proc.args[2:])[:80]}: exit {proc.returncode}: {stderr[-200:]}"
        lines = proc.stdout.decode().splitlines()
        kind = op["kind"]
        if kind == "verify":
            expected = [f"{op['identity']}\t{n}\t{op['mode']}\tPASS" for n in range(1, op["N"] + 1)]
            ok = lines == expected
        elif kind == "table":
            expected = []
            for n in range(op["N"] + 1):
                s_value, rhs = closed_form(op["identity"], n)
                text = fraction_text(rhs)
                expected.append(f"{n}\t{fraction_text(s_value)}\t{text}\t{text}\tPASS")
            ok = lines == expected
        elif kind == "enumerate":
            n = op["n"]
            ok = (len(lines) == catalan_number(n) == len(set(lines))
                  and all(is_tree_code(code, n) for code in lines))
        elif kind == "fibers":
            n, total = op["n"], factorial(op["n"])
            rows = [line.split("\t") for line in lines[:-1]]
            ok = (lines[-1:] == [f"total\t{total}"]
                  and all(len(row) == 2 and is_tree_code(row[0], n) for row in rows)
                  and sum(int(row[1]) for row in rows) == total)
        elif kind == "rank":
            expect = {"left": lambda: catalan_number(op["n"]) - 1, "right": lambda: 0,
                      "previous": lambda: op["expect"]}[op["shape"]]()
            ok = lines == [str(expect)]
        else:
            n = op["n"]
            if op["shape"] == "left":
                ok = lines == ["1" * n + "0" * n]
            else:
                ok = len(lines) == 1 and is_tree_code(lines[0], n)
                if ok:
                    self.previous_code = lines[0]
        if ok:
            return None
        shown = " | ".join(lines[:3])[:200]
        return f"{' '.join(self.argv(op, '<code>'))[:80]}: unexpected output {shown!r}"

    def run_traced(self, ops):
        """Run ops through the tracing launcher; return samples, failures,
        the span summary merged over all ops and the CLI timings."""
        self.traced, self.trace_total, self.cli_s = True, {}, dict(NO_CLI)
        self.stdout_bytes = 0
        try:
            samples, failures = run_ops(self, ops)
        finally:
            self.traced = False
        return samples, failures, self.trace_total, self.cli_s

    def _collect_trace(self, stderr: str) -> None:
        for line in reversed(stderr.splitlines()):
            if line.startswith(spans.TRACE_MARKER):
                record = json.loads(line[len(spans.TRACE_MARKER):])
                for key in self.cli_s:
                    self.cli_s[key] += record[key]
                spans.merge(self.trace_total, record["summary"])
                return
        raise RuntimeError("traced CLI run printed no trace record")


WORKLOADS = {cls.name: cls for cls in (BruteMix, RecurrenceDeep, CliCold)}


def first_blocks(workload, seed: int, count: int) -> list[dict]:
    """The ops of the first ``count`` blocks of a workload's stream."""
    ops: list[dict] = []
    for _, block in zip(range(count), workload.blocks(seed)):
        ops.extend(block)
    return ops

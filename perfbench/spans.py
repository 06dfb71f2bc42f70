"""In-memory span recorder for the traced benchmark run.

Wrappers are installed at run time around the public functions each
hooktrees layer calls into the next; ``src/`` is never edited.  A span
is (name, parent span, start, busy time, work count).  Spans live in flat
arrays because the brute route makes one ``subtree_sizes`` call per tree
(hundreds of thousands per traced pass), and are only reduced to per-name
totals when the run ends.

A layer's self time is its span's busy time minus the busy time of its
direct child spans.  Generators (``iter_trees``) are timed only while
they run, so the consumer's work between two yields is not charged to
them.
"""

from __future__ import annotations

import functools
import time
from array import array

clock = time.perf_counter

# Prefix of the line on which a traced CLI process reports its spans.
TRACE_MARKER = "PERFBENCH-TRACE "

# (module, attribute, span name, work counter or None, is a generator).
# A counter maps (result, *args) to the work done by one call.
TARGETS = (
    ("trees", "iter_trees", "trees.iter_trees", None, True),
    ("trees", "subtree_sizes", "trees.subtree_sizes", None, False),
    ("trees", "rank", "trees.rank", "vertices", False),
    ("trees", "unrank", "trees.unrank", None, False),
    ("trees", "encode", "trees.encode", None, False),
    ("trees", "decode", "trees.decode", None, False),
    ("identities", "verify", "identities.verify", None, False),
    ("identities", "_check", "identities.check", None, False),
    ("identities", "eval_brute", "identities.eval_brute", None, False),
    ("identities", "eval_recurrence", "identities.eval_recurrence", None, False),
    ("labelings", "verify_eq2", "labelings.verify_eq2", None, False),
    ("labelings", "shape_fiber_histogram", "labelings.shape_fiber_histogram", "perms", False),
)

MODULES = ("hooktrees", "hooktrees.trees", "hooktrees.identities", "hooktrees.labelings",
           "hooktrees.cli")


class Tracer:
    """Records spans for every wrapped call until :meth:`uninstall`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.busy = array("d")
        self.count = array("q")
        self.stack = [-1]
        self.tables: list = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        i = len(self.parent)
        self.name_ix.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.busy.append(0.0)
        self.count.append(0)
        return i

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        stack, starts, busy, counts = self.stack, self.start, self.busy, self.count
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                busy[i] = t1 - t0
            if counter is not None:
                counts[i] = counter(result, *args)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        stack, starts, busy, counts = self.stack, self.start, self.busy, self.count
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            starts[i] = clock()
            inner = fn(*args, **kwargs)
            spent = 0.0
            items = 0
            try:
                while True:
                    stack.append(i)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spent += clock() - t0
                        stack.pop()
                    items += 1
                    yield item
            finally:
                busy[i] = spent
                counts[i] = items

        return wrapper

    def install(self, package) -> None:
        """Wrap every target in every hooktrees module that binds it."""
        import importlib

        modules = [importlib.import_module(name) for name in MODULES]
        counters = {"vertices": lambda result, tree: package.trees.size(tree),
                    "perms": lambda result, *args: sum(result.values())}
        for module_name, attr, name, counter, is_gen in TARGETS:
            original = getattr(getattr(package, module_name), attr)
            if is_gen:
                wrapped = self.wrap_generator(name, original)
            else:
                wrapped = self.wrap(name, original, counters.get(counter))
            self._rebind(modules, original, wrapped)

        original_table = package.identities.SumTable
        tables = self.tables

        class RecordedSumTable(original_table):
            def __init__(self, weight):
                super().__init__(weight)
                tables.append(self)

        self._rebind(modules, original_table, RecordedSumTable)

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name calls, self time and work count, plus SumTable sizes."""
        child = [0.0] * len(self.parent)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.busy[i]
        out = {name: {"calls": 0, "self_s": 0.0, "count": 0} for name in self.names}
        for i, nid in enumerate(self.name_ix):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += self.busy[i] - child[i]
            row["count"] += self.count[i]
        return {"spans": out, "tables": table_stats(self.tables), "span_count": len(self.parent)}


class _Span:
    __slots__ = ("tracer", "nid", "i", "t0")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)
        self.tracer.stack.append(self.i)
        self.t0 = clock()
        return self

    def __exit__(self, *exc):
        t1 = clock()
        self.tracer.stack.pop()
        self.tracer.start[self.i] = self.t0
        self.tracer.busy[self.i] = t1 - self.t0
        return False


def table_stats(tables) -> dict:
    """Entries, convolution terms and operand bits of finished SumTables.

    ``operand_bits`` is computed from the stored values after the run, not
    counted inside the program: for each entry m it adds the bit lengths
    (numerator plus denominator) of both factors of every product
    S(k) * S(m-1-k) that the convolution for m multiplies.
    """
    entries = conv_terms = operand_bits = 0
    for table in tables:
        length = len(table)
        entries += length
        conv_terms += length * (length - 1) // 2
        prefix = 0
        for m in range(1, length):
            value = table.value(m - 1)
            prefix += value.numerator.bit_length() + value.denominator.bit_length()
            operand_bits += 2 * prefix
    return {"entries": entries, "conv_terms": conv_terms, "operand_bits": operand_bits}


def merge(into: dict, summary: dict) -> None:
    """Add one summary (as from :meth:`Tracer.summary`) into a running total."""
    spans = into.setdefault("spans", {})
    for name, row in summary["spans"].items():
        total = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
        for key in total:
            total[key] += row[key]
    tables = into.setdefault("tables", {"entries": 0, "conv_terms": 0, "operand_bits": 0})
    for key in tables:
        tables[key] += summary["tables"][key]
    into["span_count"] = into.get("span_count", 0) + summary["span_count"]

"""Command-line front end: verify, enumerate, fibers, table, rank, unrank.

Exit codes are stable across subcommands: 0 when every check passed, 1 when
a verification failed, 2 for usage or precondition errors (unknown names,
exceeded caps, malformed codes), 130 (128 + SIGINT) on Ctrl-C, and 141
(128 + SIGPIPE, as a shell reports for ``yes | head -1``) when the reader
closes stdout early, even after an error message.  Handlers only yield
``(passed, row, tsv)`` per record; ``main`` alone prints them and picks the
exit code.  The parser and the handlers raise ValueError for every usage
error, which ``main`` prints as one ``error:`` line, as it does for Ctrl-C;
no exit prints a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator

from . import identities, labelings, trees

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPT = 130
EXIT_PIPE = 141


def _emit(args: argparse.Namespace, row: dict, tsv: str) -> None:
    """Print one record: the row as a JSON object, or its TSV line."""
    if args.format == "json":
        import json  # only JSON output pays for this import
        print(json.dumps(row))
    else:
        print(tsv)


_Rows = Iterator[tuple[bool, dict, str]]  # (passed, row, tsv) per record


def _cmd_verify(args: argparse.Namespace) -> _Rows:
    for record in identities.iter_verify(args.identity, args.n_from, args.n_to, args.mode,
                                         brute_cap=args.brute_cap):
        yield record.passed, record.row(), record.tsv_line()


def _cmd_enumerate(args: argparse.Namespace) -> _Rows:
    if args.n > args.brute_cap:
        raise ValueError(f"n={args.n} exceeds the brute-force cap {args.brute_cap}")
    for code in map(trees.encode, trees.iter_trees(args.n)):
        yield True, {"code": code}, code


def _cmd_fibers(args: argparse.Namespace) -> _Rows:
    histogram = labelings.shape_fiber_histogram(args.n, cap=args.fiber_cap)
    for code, count in sorted(histogram.items()):
        yield True, {"code": code, "count": count}, f"{code}\t{count}"
    total = sum(histogram.values())
    yield True, {"total": total}, f"total\t{total}"


def _cmd_table(args: argparse.Namespace) -> _Rows:
    if args.n_to < 0:  # the range starts at 0, which the user never typed
        raise ValueError("n must be nonnegative")
    identity = identities.get_identity(args.identity)
    table = identities.SumTable(identity.weight)
    for record in identities.iter_verify(identity, 0, args.n_to, "recurrence", table=table):
        row = {
            "n": record.n,
            "sum": identities.fraction_str(table.value(record.n)),
            "lhs": identities.fraction_str(record.lhs),
            "rhs": identities.fraction_str(record.rhs),
            "match": record.passed,
        }
        tsv = f"{record.n}\t{row['sum']}\t{row['lhs']}\t{row['rhs']}\t{record.status}"
        yield record.passed, row, tsv


def _cmd_rank(args: argparse.Namespace) -> _Rows:
    value = trees.rank(trees.decode(args.code))
    yield True, {"rank": value}, str(value)


def _cmd_unrank(args: argparse.Namespace) -> _Rows:
    code = trees.encode(trees.unrank(args.n, args.index))
    yield True, {"code": code}, code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line, through main's usage-error path
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hooktrees",
        description="Exact verification of multiplicative hook-length identities on binary trees.",
    )
    parser.add_argument("--brute-cap", type=_positive_int, default=identities.DEFAULT_BRUTE_CAP,
                        help="largest n allowed for full enumeration (default %(default)s)")
    parser.add_argument("--fiber-cap", type=_positive_int, default=labelings.DEFAULT_FIBER_CAP,
                        help="largest n for fiber histograms (default %(default)s)")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv",
                        help="output format (default %(default)s)")

    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="check an identity over a range of n")
    verify.add_argument("identity", choices=identities.BUILTIN_NAMES)
    verify.add_argument("n_from", type=int)
    verify.add_argument("n_to", type=int)
    verify.add_argument("mode", choices=identities.MODES)
    verify.set_defaults(handler=_cmd_verify)

    enum = commands.add_parser("enumerate", help="print the code of every n-vertex tree")
    enum.add_argument("n", type=int)
    enum.set_defaults(handler=_cmd_enumerate)

    fibers = commands.add_parser("fibers", help="permutation counts per search-tree shape")
    fibers.add_argument("n", type=int)
    fibers.set_defaults(handler=_cmd_fibers)

    table = commands.add_parser("table", help="tabulate S(n), lhs and rhs per n")
    table.add_argument("identity", choices=identities.BUILTIN_NAMES)
    table.add_argument("n_to", type=int)
    table.set_defaults(handler=_cmd_table)

    rank = commands.add_parser("rank", help="position of a tree code in canonical order")
    rank.add_argument("code")
    rank.set_defaults(handler=_cmd_rank)

    unrank = commands.add_parser("unrank", help="tree code at a canonical position")
    unrank.add_argument("n", type=int)
    unrank.add_argument("index", type=int)
    unrank.set_defaults(handler=_cmd_unrank)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Ranks of trees with a few thousand vertices have more digits than the
    # default int/str conversion limit allows, so lift it for this call.
    # Pythons before 3.10.7 have no limit and no setter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
            code = EXIT_OK
            for passed, row, tsv in args.handler(args):
                _emit(args, row, tsv)
                if not passed:
                    code = EXIT_FAILED
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_USAGE
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

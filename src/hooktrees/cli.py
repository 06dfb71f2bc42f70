"""Command-line front end: verify, enumerate, fibers, table, rank, unrank.

Exit codes are stable across subcommands: 0 when every check passed, 1 when
a verification failed, 2 for usage or precondition errors (unknown names,
exceeded caps, malformed codes), 130 (128 + SIGINT) on Ctrl-C, and 141
(128 + SIGPIPE, as a shell reports for ``yes | head -1``) when the reader
closes stdout early.  Handlers raise ValueError, or let the library's
propagate; ``main`` maps every one of them to exit 2 with a one-line message, Ctrl-C
to exit 130 with one line, and a closed pipe, even after such a message,
to exit 141; none of them prints a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import identities, labelings, trees

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPT = 130
EXIT_PIPE = 141


def _emit(args: argparse.Namespace, row: dict, tsv: str) -> None:
    """Print one record: the row as a JSON object, or its TSV line."""
    print(json.dumps(row) if args.format == "json" else tsv)


def _cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    for record in identities.iter_verify(
        args.identity, args.n_from, args.n_to, args.mode, brute_cap=args.brute_cap
    ):
        _emit(args, record.row(), record.tsv_line())
        failed = failed or not record.passed
    return EXIT_FAILED if failed else EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n > args.brute_cap:
        raise ValueError(f"n={args.n} exceeds the brute-force cap {args.brute_cap}")
    for tree in trees.iter_trees(args.n):
        code = trees.encode(tree)
        _emit(args, {"code": code}, code)
    return EXIT_OK


def _cmd_fibers(args: argparse.Namespace) -> int:
    histogram = labelings.shape_fiber_histogram(args.n, cap=args.fiber_cap)
    for code, count in sorted(histogram.items()):
        _emit(args, {"code": code, "count": count}, f"{code}\t{count}")
    total = sum(histogram.values())
    _emit(args, {"total": total}, f"total\t{total}")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    identity = identities.get_identity(args.identity)
    table = identities.SumTable(identity.weight)
    mismatched = False
    for record in identities.iter_verify(identity, 0, args.n_to, "recurrence", table=table):
        row = {
            "n": record.n,
            "sum": identities.fraction_str(table.value(record.n)),
            "lhs": identities.fraction_str(record.lhs),
            "rhs": identities.fraction_str(record.rhs),
            "match": record.passed,
        }
        _emit(args, row, f"{record.n}\t{row['sum']}\t{row['lhs']}\t{row['rhs']}\t{record.status}")
        mismatched = mismatched or not record.passed
    return EXIT_FAILED if mismatched else EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    value = trees.rank(trees.decode(args.code))
    _emit(args, {"rank": value}, str(value))
    return EXIT_OK


def _cmd_unrank(args: argparse.Namespace) -> int:
    code = trees.encode(trees.unrank(args.n, args.index))
    _emit(args, {"code": code}, code)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
            code = args.handler(args)
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

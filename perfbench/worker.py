"""One benchmark process: set up a workload, then run its ops and report.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops after set-up, so that ``run.py`` can repeat
set-up in fresh interpreters and report the median.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

clock = time.perf_counter

# The four commands the ROADMAP quotes single-shot timings for, run once
# each in the traced run as informational rows.
REFERENCE_OPS = {
    "ref.verify_han4_1_12_both_s": {"kind": "verify", "identity": "han4", "N": 12, "mode": "both"},
    "ref.verify_han5_1_300_recurrence_s":
        {"kind": "verify", "identity": "han5", "N": 300, "mode": "recurrence"},
    "ref.verify_han4_1_400_recurrence_s":
        {"kind": "verify", "identity": "han4", "N": 400, "mode": "recurrence"},
    "ref.fibers_8_s": {"kind": "fibers", "n": 8},
}


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    That is the 11th largest sample; its percentile is (N - 10) / N.
    With fewer than 11 samples the maximum is reported instead.
    """
    ordered = sorted(samples)
    beyond = min(10, len(ordered) - 1)
    value = ordered[len(ordered) - 1 - beyond]
    return value, 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def peak_rss_mib(workload) -> float:
    """Peak RSS of the process doing the work: this one, or for cli-cold
    the largest of its children."""
    return resource.getrusage(workload.rusage_who).ru_maxrss / 1024.0


def timed_run(workload, seed, seconds):
    """Closed loop for ``seconds``; the block under way when time is up is
    finished, so every run measures whole blocks of the balanced mix."""
    samples, failures = [], []
    start = clock()
    for block in workload.blocks(seed):
        block_samples, block_failures = workloads.run_ops(workload, block)
        samples += block_samples
        failures += block_failures
        if clock() - start >= seconds:
            break
    elapsed = clock() - start
    value, percentile, beyond = tail(samples)
    return {
        "metrics": {
            "op_p50_s": statistics.median(samples),
            "op_tail_s": value,
            "ops_per_s": len(samples) / elapsed,
            "peak_rss_mib": peak_rss_mib(workload),
        },
        "attempted": len(samples),
        "failures": failures,
        "details": {"op_tail_s": {"percentile": percentile, "samples": len(samples),
                                  "beyond": beyond},
                    "elapsed_s": elapsed,
                    "route_disagreements": workload.route_disagreements},
    }


def traced_run(workload, seed):
    """The first ``trace_blocks`` blocks, once untraced and once traced,
    then the reference rows.  A fixed op list keeps every count exact."""
    ops = workloads.first_blocks(workload, seed, workload.trace_blocks)
    plain, failures = workloads.run_ops(workload, ops)
    traced, traced_failures, summary, cli_s = workload.run_traced(ops)
    failures += traced_failures

    reference = workloads.CliCold()
    ref_values = {}
    for name, op in REFERENCE_OPS.items():
        samples, ref_failures = workloads.run_ops(reference, [op])
        ref_values[name] = samples[0]
        failures += ref_failures

    span_rows = summary.get("spans", {})
    tables = summary.get("tables", {"entries": 0, "conv_terms": 0, "operand_bits": 0})

    def span(name, key):
        return span_rows.get(name, {}).get(key, 0)

    attempted = 2 * len(ops) + len(REFERENCE_OPS)
    metrics = {
        "trees.subtree_sizes.calls": span("trees.subtree_sizes", "calls"),
        "trees.subtree_sizes.self_s": span("trees.subtree_sizes", "self_s"),
        "trees.iter_trees.trees": span("trees.iter_trees", "count"),
        "trees.iter_trees.self_s": span("trees.iter_trees", "self_s"),
        "identities.eval_brute.self_s": span("identities.eval_brute", "self_s"),
        "labelings.verify_eq2.self_s": span("labelings.verify_eq2", "self_s"),
        "identities.eval_recurrence.self_s": span("identities.eval_recurrence", "self_s"),
        "identities.check.self_s": span("identities.check", "self_s"),
        "identities.SumTable.entries": tables["entries"],
        "identities.SumTable.conv_terms": tables["conv_terms"],
        "identities.SumTable.operand_bits": tables["operand_bits"],
        "trees.rank.self_s": span("trees.rank", "self_s"),
        "trees.unrank.self_s": span("trees.unrank", "self_s"),
        "trees.codec.self_s": span("trees.encode", "self_s") + span("trees.decode", "self_s"),
        "trees.rank.vertices": span("trees.rank", "count"),
        "labelings.shape_fiber_histogram.self_s":
            span("labelings.shape_fiber_histogram", "self_s"),
        "labelings.shape_fiber_histogram.perms": span("labelings.shape_fiber_histogram", "count"),
        "cli.interp_s": cli_s["interp_s"],
        "cli.import_s": cli_s["import_s"],
        "cli.main_s": cli_s["main_s"],
        "cli.stdout_bytes": workload.stdout_bytes,
        "identities.route_disagreements": workload.route_disagreements,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "fail_frac": len(failures) / attempted,
        **ref_values,
    }
    self_total = {name: row["self_s"] for name, row in span_rows.items()}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "details": {"traced_ops": len(ops), "spans": summary.get("span_count", 0),
                    "computed": {"identities.SumTable.operand_bits":
                                 "from the SumTable values after the run, not counted in src/"},
                    "self_s_by_span": self_total,
                    "op_p50_s": {"untraced": statistics.median(plain),
                                 "traced": statistics.median(traced)}},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    workload.setup()
    gc.collect()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        result = {}
    elif args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    result["setup_s"] = setup_s
    result.setdefault("details", {})["hooktrees_file"] = workload.package_file
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""huffwyth benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 15 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it runs the op set untraced, then traced, and reports per-layer
metrics plus the tracing overhead.  The last line of stdout is the result
object; the line before it records the run: seed, interpreter, nproc, the
workload's inputs, the tail percentile and its sample count, and failures.
See bench/README.md for what each workload and metric is for.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 11       # fresh processes timed to the first op; setup_s is their median
CLI_PROBES = 5          # bare and importing interpreters for cli.interp_s / cli.import_s
ALLOC_PASS_S = 3.0      # time cap of the tracemalloc pass of a traced run
MIN_BEYOND = 10         # samples a run keeps beyond its workload's op_tail_ms percentile
CLI_COMMANDS = ("selftest", "minseq", "cost", "wythoff", "classify", "verify", "huffman-json",
                "huffman-csv", "huffman-table", "huffman-tree", "fib")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import huffwyth.cli; "
                "print(time.perf_counter() - t)")


def attempt(op):
    """Run one op; return (seconds, status, detail) with status ok, error or wrong."""
    t0 = time.perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # any failure of the program is counted, the run goes on
        return time.perf_counter() - t0, "error", f"{op.label}: {type(exc).__name__}: {exc}"[:300]
    dt = time.perf_counter() - t0
    try:
        wrong = op.check(value)
    except Exception as exc:  # output the check cannot read is a wrong answer
        wrong = f"unreadable output: {type(exc).__name__}: {exc}"
    return dt, ("wrong" if wrong else "ok"), wrong and f"{op.label}: {wrong}"[:300]


def run_passes(ops, seconds, min_passes):
    """Whole passes over the op set, about `seconds` long and at least `min_passes`.

    A pass starts only if, at the last pass's pace, it would end before
    `seconds` plus half a pass.
    """
    passes, start, last = [], time.perf_counter(), 0.0
    while len(passes) < min_passes or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        passes.append([(op.label, *attempt(op)) for op in ops])
        last = time.perf_counter() - t0
    return passes


def outcome(passes):
    records = [r for p in passes for r in p]
    failures = [detail for _, _, status, detail in records if status != "ok"]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "wrong": sum(status == "wrong" for _, _, status, _ in records),
        "failures": sorted(set(failures)),
    }


def pass_walls(passes):
    """Time of each pass: the sum of its op latencies, checks excluded."""
    return [sum(dt for _, dt, _, _ in p) for p in passes]


def setup_seconds(args):
    """Median time from spawning a fresh run of this workload to its first timed op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        samples.append(float(out) - t0)
    return statistics.median(samples)


def peak_rss_mb():
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def end_to_end(wl, args):
    """End-to-end metrics from a pool of each op's samples.

    A shared host switches between a fast and a slow state, about 1.5x
    apart, and its share of fast time drifts from run to run.  How a run's
    figures follow that drift depends on the op.  Short ops, sampled a
    hundred times or more in a run, split into a fast and a slow mode, so
    their medians jump with the mix; their fastest samples land in the
    fast mode in every run.  Long ops, sampled a score of times, average
    over the switching in each sample; their medians follow the host's usual
    state, while their fastest samples depend on luck.  So a best-of
    workload costs each op at its minimum and pools each op's `keep`
    fastest samples; any other workload costs each op at its median and
    pools every sample.  `keep` and the pass count are the fewest that put
    MIN_BEYOND samples beyond the workload's fixed tail percentile.
    """
    min_samples = math.ceil(MIN_BEYOND * 100 / (100 - wl.tail_pct)) + 1
    keep = math.ceil(min_samples / len(wl.ops))
    passes = run_passes(wl.ops, args.seconds, keep)
    rss = peak_rss_mb()
    labels = [label for label, _, _, _ in passes[0]]
    per_op = list(zip(*([dt for _, dt, _, _ in p] for p in passes)))
    if wl.best_of:
        pool = [dt for samples in per_op for dt in sorted(samples)[:keep]]
        wall = sum(min(samples) for samples in per_op)
    else:
        pool = [dt for samples in per_op for dt in samples]
        wall = sum(statistics.median(samples) for samples in per_op)
    tail = statistics.quantiles(pool, n=100, method="inclusive")[wl.tail_pct - 1]
    res = outcome(passes)
    metrics = {
        "setup_s": (setup_seconds(args), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(per_op) / wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(pool), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "ok_ratio": (1 - res["failed"] / res["attempted"], "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"passes": len(passes), "samples": len(pool), "tail_percentile": wl.tail_pct,
            "tail_beyond": sum(x > tail for x in pool),
            "failed_ratio": res["failed"] / res["attempted"],
            "op_samples_ms": {label: [round(1000 * dt, 3) for dt in samples]
                              for label, samples in zip(labels, per_op)}}
    return metrics, res, info


def per_layer(wl, args, tracer_mod, cli_runner):
    untraced = run_passes(wl.ops, args.seconds / 2, 1)
    tracer = tracer_mod.Tracer()
    runner = wl.runner
    tracer.install()
    try:
        if runner is not None:
            runner.tracer = tracer
        traced = run_passes(wl.ops, args.seconds / 2, 1)
        layers = tracer.snapshot()["layers"]
        if wl.in_process:
            # Cheapest ops first, so the time cap stops the pass early, not a long op late.
            cost = {label: dt for label, dt, _, _ in untraced[0]}
            tracemalloc.start()
            tracer.measure_alloc = True
            start = time.perf_counter()
            for op in sorted(wl.ops, key=lambda o: cost[o.label]):
                attempt(op)
                if time.perf_counter() - start > ALLOC_PASS_S:
                    break
            tracemalloc.stop()
    finally:
        tracer.uninstall()
        if runner is not None:
            runner.tracer = None

    per_pass = len(traced)
    metrics = {}
    for name, layer in layers.items():
        metrics[f"{name}.calls"] = (layer["calls"] / per_pass, "count")
        metrics[f"{name}.self_s"] = (layer["self_s"] / per_pass, "s")
        metrics[f"{name}.failed"] = (layer["failed"] / per_pass, "count")
    trace_l, json_l, oracle_l = layers["huffman.trace"], layers["huffman.json"], layers["oracle"]
    candidates, members = oracle_l.get("candidates", 0), oracle_l.get("members", 0)
    scan_s = oracle_l.get("scan_s", 0.0)
    metrics.update({
        "huffman.trace.weights": (trace_l.get("weights", 0) / per_pass, "count"),
        "huffman.trace.peak_alloc_mb": (tracer.layers["huffman.trace"].peak_alloc / 2 ** 20, "MB"),
        "huffman.json.bytes": (json_l.get("bytes", 0) / per_pass, "B"),
        "oracle.candidates": (candidates / per_pass, "count"),
        "oracle.members": (members / per_pass, "count"),
        "oracle.member_ratio": (members / candidates if candidates else 0.0, "ratio"),
        "oracle.candidates_per_s": (candidates / scan_s if scan_s else 0.0, "1/s"),
        "cli.interp_s": (statistics.median(cli_runner.wall("pass")[0] for _ in range(CLI_PROBES)), "s"),
        "cli.import_s": (statistics.median(float(cli_runner.wall(IMPORT_PROBE)[1])
                                           for _ in range(CLI_PROBES)), "s"),
    })
    for command in CLI_COMMANDS:
        lat = [] if wl.in_process else [dt for p in untraced for label, dt, _, _ in p
                                        if label == command]
        metrics[f"cli.{command}.p50_ms"] = (1000 * statistics.median(lat) if lat else 0.0, "ms")
    metrics["tracing.overhead_s"] = (statistics.median(pass_walls(traced))
                                     - statistics.median(pass_walls(untraced)), "s")
    info = {"untraced_passes": len(untraced), "traced_passes": per_pass}
    return metrics, outcome(untraced + traced), info


def measure(args, tiny=False):
    """Build the workload, measure it, and return (run record, result object)."""
    import tracer
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny)
    cli_runner = wl.runner or workloads.CliRunner()
    if not wl.in_process:
        cli_runner.wall("import huffwyth.cli")   # compile the CLI's bytecode before timing
    if args.trace:
        metrics, res, extra = per_layer(wl, args, tracer, cli_runner)
    else:
        metrics, res, extra = end_to_end(wl, args)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.executable, "python_version": sys.version.split()[0],
        "nproc": os.cpu_count(), "inputs": wl.inputs, **extra,
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
    }
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "huffwyth", "__init__.py")):
        print(f"error: no huffwyth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(time.perf_counter()))
        return 0
    info, result = measure(args)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

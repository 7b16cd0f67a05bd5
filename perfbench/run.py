"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload extract_long --seed 1 \\
        --seconds 10 --trace 0 [--record results.jsonl]

Run from the repository root. A run:

1. builds (or reuses) the seed's inputs under ``perfbench/_work``;
2. starts a local Ray session three times, timing each start;
3. runs the workload once on a small warm-up input, untimed;
4. repeats the timed pass while another one fits in ``--seconds``,
   sampling the memory and CPU time of every process during each pass
   and checking the pass against the ground truth after it;
5. with ``--trace 1``, also runs one traced pass and the single-process
   kernel pass, and reports the per-layer ledger instead;
6. stops Ray, waits for every process it started, and prints a report
   line (every metric the workload has, units, per-pass values)
   followed by the result line ``{"correct", "attempted", "failed",
   "metrics"}``.

All of this happens in a child process (``supervise``).

The result line carries the metrics of ``BENCHMARK.json``, which every
workload has. The end-to-end figures and per-layer metrics only some
workloads have (``workloads.FIGURES`` and ``workloads.LAYER_UNITS``) go
in the report line only; a metric the workload should have measured and
did not fails the run.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
PKG = "zzzarchived_arxiv_fulltext_ray"
SETUP_ROUNDS = 3
# Ray 2.49 now and then aborts the process that drives it (a reference
# count check in its core worker fails); the measurement then runs once
# more in a fresh process
ATTEMPTS = 2

sys.path[:0] = [str(BENCH), str(ROOT)]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def end_to_end(setups, import_s, passes):
    return {
        "setup_s": import_s + statistics.median(setups),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_mem_mb": statistics.median(p.peak_mb for p in passes),
    }


def per_layer(passes, traced, kernel, sampler):
    wall = statistics.median(p.wall_s for p in passes)
    layers = dict(kernel)
    layers.update(traced.layers)
    # per-query times: the median over the untraced passes, like wall_s
    for name in passes[0].layers:
        layers[name] = statistics.median(p.layers[name] for p in passes)
    if kernel:
        kernel_s = kernel["functions.kernel_ms_per_doc"] / 1000.0
        layers["pipelines.overhead_share"] = (
            1.0 - kernel_s * passes[0].docs / wall)
    layers["tracing_overhead_s"] = traced.wall_s - wall
    layers["bench.sampler_share"] = sampler.cpu_s / sampler.wall_s
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the report line to this file")
    args = ap.parse_args(argv)

    if not (ROOT / PKG / "__init__.py").is_file():
        print(f"perfbench: no {PKG} package under {ROOT}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Ray workers import the package and the benchmark's own modules
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")]
                                   if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    t0 = time.perf_counter()
    import ray  # noqa: F401

    import procs
    import ledger as tr
    from zzzarchived_arxiv_fulltext_ray.pipelines import extraction  # noqa: F401
    from zzzarchived_arxiv_fulltext_ray.pipelines import queries  # noqa: F401
    from zzzarchived_arxiv_fulltext_ray.state import manifest  # noqa: F401
    from zzzarchived_arxiv_fulltext_ray.stages import dedup
    import_s = time.perf_counter() - t0

    wl = workloads.WORKLOADS[args.workload]()
    inp = wl.prepare(WORK / "inputs", args.seed)
    want = wl.truth(inp)
    out = WORK / "out" / f"{args.workload}-{os.getpid()}"

    session = procs.RaySession(WORK)
    try:
        setups = [session.start() for _ in range(SETUP_ROUNDS)]
        t0 = time.perf_counter()
        wl.run_pass(inp["warm"], out, None)
        warmup_s = time.perf_counter() - t0

        passes = []
        with procs.Sampler() as sampler:
            t_timed = time.perf_counter()
            while not passes or (
                time.perf_counter() - t_timed
                + statistics.median(p.wall_s for p in passes) <= args.seconds
            ):
                passes.append(wl.run_pass(inp["main"], out, want,
                                          sample=sampler.take))

        layers = None
        if args.trace:
            tracer = tr.Tracer()
            tracer.wrap(dedup, "dup_winner_table", "stages.dedup_winner")
            tracer.watch_executions()
            try:
                with tracer.span("pass"):
                    traced = wl.run_pass(inp["main"], out, want, tracer)
            finally:
                tracer.unwrap_all()
            traced.layers.update(tr.execution_ledger(tracer.executions))
            sample = wl.sample(inp)
            kernel = ({} if sample is None
                      else tr.kernel_ledger(sample, wl.markdown))
            layers = per_layer(passes, traced, kernel, sampler)
            tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}"
                        f"-{os.getpid()}.json",
                        {"workload": args.workload, "seed": args.seed})
    finally:
        session.close()
        import shutil

        shutil.rmtree(out, ignore_errors=True)

    all_passes = passes + ([traced] if args.trace else [])
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    b = spec()
    e2e = end_to_end(setups, import_s, passes)
    e2e.update(wl.figures(passes))
    e2e_units = units_of(b["end_to_end"] + workloads.FIGURES)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempt": int(os.environ.get("PERFBENCH_ATTEMPT", "1")),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "pass_peak_mem_mb": [p.peak_mb for p in passes],
        "setup_rounds_s": setups,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "error_rate": failed / attempted,
        "end_to_end": {k: {"value": v, "unit": e2e_units[k]}
                       for k, v in e2e.items()},
    }
    if args.trace:
        common = units_of(b["per_layer"])
        l_units = dict(workloads.LAYER_UNITS, **common)
        expected = [k for k in l_units
                    if k.startswith(wl.layers + tuple(common))]
        missing = [k for k in expected if k not in layers]
        if missing:
            print(f"perfbench: {args.workload} did not measure {missing}",
                  file=sys.stderr)
            return 1
        report["per_layer"] = {k: {"value": layers[k], "unit": l_units[k]}
                               for k in expected}
        metrics = {k: report["per_layer"][k] for k in common}
    else:
        metrics = {m["name"]: report["end_to_end"][m["name"]]
                   for m in b["end_to_end"]}
    line = json.dumps(report)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def supervise(argv) -> int:
    """Run ``main`` in a child process, up to ``ATTEMPTS`` times, and
    print the output of the first attempt that succeeds. Processes a
    dead attempt left behind are killed before the next one starts."""
    import subprocess

    import procs

    procs.adopt_orphans()
    for attempt in range(1, ATTEMPTS + 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            env=dict(os.environ, PERFBENCH_ATTEMPT=str(attempt)),
            stdout=subprocess.PIPE, text=True)
        procs.kill_tree(os.getpid())
        if child.returncode == 0:
            sys.stdout.write(child.stdout)
            return 0
        print(f"perfbench: attempt {attempt} exited with "
              f"{child.returncode}", file=sys.stderr)
    return child.returncode if child.returncode > 0 else 1


if __name__ == "__main__":
    sys.exit(main() if "PERFBENCH_ATTEMPT" in os.environ
             else supervise(sys.argv[1:]))

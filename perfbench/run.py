"""Run one workload of the ltbounds benchmark and print its metrics.

    python3 perfbench/run.py --workload {optimize,certify,verify} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
src/.  The workload's inputs come from --seed alone.  After set-up the run
repeats passes of the workload's job until the next pass would end after
--seconds.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes over
the same inputs and reports the per-layer metrics, and it writes the spans
of the first traced pass to .bench_out/spans-<workload>.tsv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric by
name and unit, the environment record and the first failures.  A checkout
without src/ltbounds exits with code 2 and prints no result.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    # set before numpy loads: the baseline is single-threaded BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# One core for the whole run, set-up probes included: the host-speed
# calibration then always measures the core the ops run on.
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7  # fresh processes timed per run; setup_s is their median
PROBE_TIMEOUT_S = 120

# The modules that load numpy (workloads, hostspeed, tracer) are imported
# inside functions: a set-up probe must time the first numpy import.


def _parse(argv):
    parser = argparse.ArgumentParser(description="ltbounds benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=("optimize", "certify", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _set_up(name: str, seed: int):
    """Import the package, build the inputs and run one warm-up op."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    workload.inputs(0)
    workload.warm_up()
    return workload, time.perf_counter() - start


def _probe_setup(args, parts) -> tuple[float, float]:
    """Median set-up time over fresh processes: (at reference speed, raw)."""
    import hostspeed

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = hostspeed.speed(parts)
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        after = hostspeed.speed(parts)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * 0.5 * (before + after))
    return statistics.median(scaled), statistics.median(raw)


def _timed_pass(workload, pass_index: int):
    """Run one pass -> (ops with seconds at reference speed, raw wall, scaled wall)."""
    import hostspeed

    timer = hostspeed.OpTimer(workload.calibration)
    ops = workload.run_pass(pass_index, timer)
    raw_wall = sum(op.seconds for op in ops)
    for op, factor in zip(ops, timer.factors()):
        op.seconds *= factor
    return ops, raw_wall, sum(op.seconds for op in ops)


def _repeat(run_once, seconds: float) -> None:
    """Call run_once() until the next call would end after seconds; at least once."""
    start = time.perf_counter()
    count = 0
    while True:
        run_once()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _end_to_end(workload, args):
    passes = []
    _repeat(lambda: passes.append(_timed_pass(workload, len(passes))), args.seconds)
    ops = [op for p in passes for op in p[0]]
    latencies = [op.seconds for op in ops]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]  # every pass has >= 3 ops
    setup_s, raw_setup_s = _probe_setup(args, workload.calibration)
    values = {
        "wall_s": statistics.median(p[2] for p in passes),
        "ops_per_s": len(ops) / sum(p[2] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    }
    raw_wall_s = statistics.median(p[1] for p in passes)
    extra = {"passes": len(passes), "op_samples": len(ops),
             "samples_beyond_p90": sum(t > p90 for t in latencies),
             "raw_wall_s": raw_wall_s, "raw_setup_s": raw_setup_s,
             "host_speed": statistics.median(p[2] / p[1] for p in passes)}
    return values, ops, extra


def _per_layer(workload, args):
    from tracer import Tracer

    untraced, traced, layer = [], [], []
    first = []

    def run_pair():
        untraced.append(_timed_pass(workload, 0))
        tracer = Tracer()
        with tracer.installed():
            traced.append(_timed_pass(workload, 0))
        ops, raw_wall, wall = traced[-1]
        metrics = tracer.layer_metrics()
        for name in metrics:
            if name.endswith(("_s", ".s")):
                metrics[name] *= wall / raw_wall  # to reference host speed, as the walls
        metrics["quad.integrate.self_share"] = metrics["quad.integrate.self_s"] / wall
        layer.append(metrics)
        if not first:
            first.append(tracer)  # keep one pass of spans to write out

    t0 = time.perf_counter()
    _repeat(run_pair, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{args.workload}.tsv", "w") as fh:
        first[0].write_spans(fh, t0)

    problems = []
    values = {}
    for name in layer[0]:
        series = [m[name] for m in layer]
        if isinstance(series[0], int) and len(set(series)) > 1:
            problems.append(f"count {name} differs between traced passes: {series}")
        values[name] = statistics.median(series)
    untraced_wall = statistics.median(p[2] for p in untraced)
    values["trace.wall_s"] = statistics.median(p[2] for p in traced)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / untraced_wall
    ops = [op for p in untraced + traced for op in p[0]]
    extra = {"pairs": len(traced), "untraced_wall_s": untraced_wall, "spans_per_pass": len(first[0].start),
             "run_problems": problems}
    return values, ops, extra


def _environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "pinned_cpu": PINNED_CPU, "cpu_model": cpu,
            "git_commit": commit, "seed": seed, "threads": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ltbounds" / "__init__.py").is_file():
        print(f"error: no ltbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(_set_up(args.workload, args.seed)[1]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload, _ = _set_up(args.workload, args.seed)
    measure = _per_layer if args.trace else _end_to_end
    values, ops, extra = measure(workload, args)

    import workloads

    failures = [op.problem for op in ops if op.problem is not None]
    run_problems = extra.pop("run_problems", [])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "inputs_sha256": workloads.inputs_digest(workload),
        "failed_ratio": len(failures) / len(ops),
        "c_best": getattr(workload, "c_best", None),
        **extra,
        "environment": _environment(args.seed),
        "first_failures": (run_problems + failures)[:10],
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"ltbounds benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<44} {report['failed_ratio']:>16.6g} 1")
    if report["c_best"] is not None:
        print(f"  {'c_best':<44} {report['c_best']:>16.9g} 1")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": not failures and not run_problems, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

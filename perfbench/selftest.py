"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  For every workload, two traced
runs with the same seed must pass their checks and report identical counts
(every per-layer metric of BENCHMARK.json with unit "count") and a
bit-identical c_best at seed 0; the inputs generated for seeds 0 and 1 must
differ.  Prints one line per finding and exits with code 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, OTHER_SEED = 0, 1


def _traced_run(workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return json.loads(lines[-1]), report


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        first, second = (_traced_run(name, SEED) for _ in range(2))
        for result, report in (first, second):
            if not result["correct"]:
                problems.append(f"{name}: checks failed: {report['first_failures']}")
        for metric in counts:
            a, b = (result["metrics"][metric]["value"] for result, _ in (first, second))
            if a != b:
                problems.append(f"{name}: {metric} differs between runs: {a} vs {b}")
        c_best = [report["c_best"] for _, report in (first, second)]
        if c_best[0] is not None and float(c_best[0]).hex() != float(c_best[1]).hex():
            problems.append(f"{name}: c_best differs between runs: {c_best[0]!r} vs {c_best[1]!r}")

        digests = [workloads.inputs_digest(cls(seed)) for seed in (SEED, SEED, OTHER_SEED)]
        if digests[0] != digests[1]:
            problems.append(f"{name}: seed {SEED} generated different inputs twice")
        if digests[0] == digests[2]:
            problems.append(f"{name}: seeds {SEED} and {OTHER_SEED} generated the same inputs")
        print(f"{name}: {len(counts)} counts compared, c_best {c_best[0]!r}, inputs {digests[0][:12]}")

    for problem in problems:
        print("FAIL", problem)
    print("determinism self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

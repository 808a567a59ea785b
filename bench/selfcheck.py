"""Self-check of the benchmark: every workload at its smallest size.

    python3 bench/selfcheck.py

For each workload and for two seeds, runs ``run.py --size small`` once
untraced and twice traced, and asserts that

* no check fails (``fail_ratio == 0``) and at least one was attempted;
* the metric names are exactly the ones ``BENCHMARK.json`` declares;
* the exact input-property counts repeat bit-for-bit between the two traced
  runs.

Exits with 1 on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import COUNTS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT = COUNTS + ("norms.approx.enum.distinct_share", "norms.approx.enum.majority_share")


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "small"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.splitlines()[-1])


def check(result: dict, names: set, what: str) -> None:
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
        sys.exit(f"{what}: {result['failed']} of {result['attempted']} checks failed")
    if set(result["metrics"]) != names:
        sys.exit(f"{what}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ names)}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        for seed in (1, 2):
            what = f"{workload} seed {seed}"
            plain = run(workload, seed, 0)
            check(plain, end_to_end, what)
            first, second = run(workload, seed, 1), run(workload, seed, 1)
            check(first, per_layer, what + " traced")
            check(second, per_layer, what + " traced")
            for name in EXACT:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    sys.exit(f"{what}: {name} differs between traced runs: {a} vs {b}")
            print(f"{what}: fail_ratio 0 of {plain['attempted']} checks; exact counts repeat")


if __name__ == "__main__":
    main()

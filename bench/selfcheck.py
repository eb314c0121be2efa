"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload end to end at its tiny size, twice untraced and twice
traced, and checks that each run is correct, that it emits exactly the
metrics BENCHMARK.json names with their units, and that the output digests
and the exact per-layer counts repeat between the two runs.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INFO_KEYS = {"digest", "failed_frac", "inputs_attempted", "inputs_distinct",
             "input_size"}


def run(workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    info = json.loads(next(l for l in lines if l.startswith("# info "))[len("# info "):])
    return json.loads(lines[-1]), info


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from workloads import NAMES  # the ones in BENCHMARK.json and the rest

    unknown = {w["name"] for w in spec["workloads"]} - set(NAMES)
    if unknown:
        sys.exit(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for workload in NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            (first, info1), (second, info2) = run(workload, trace), run(workload, trace)
            for result, info in ((first, info1), (second, info2)):
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    sys.exit(f"{workload}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    sys.exit(f"{workload} trace={trace}: run not correct")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    sys.exit(f"{workload} trace={trace}: metrics {got} != {want}")
                if not INFO_KEYS <= set(info):
                    sys.exit(f"{workload}: info lacks {INFO_KEYS - set(info)}")
            if info1["digest"] != info2["digest"]:
                sys.exit(f"{workload} trace={trace}: digests differ between runs")
            if trace:
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if v["unit"] == "count"} for r in (first, second)]
                if counts[0] != counts[1]:
                    sys.exit(f"{workload}: per-layer counts differ between runs")
            print(f"ok {workload} trace={trace}")
    print("selfcheck passed")


if __name__ == "__main__":
    main()

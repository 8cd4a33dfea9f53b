"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with `--size
tiny` and asserts that the result line has the agreed keys and that every
metric BENCHMARK.json names is printed, finite, and in its declared unit.
Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = result["metrics"]
            assert set(printed) == set(declared), (
                f"{workload} trace {trace}: missing {sorted(set(declared) - set(printed))}, "
                f"extra {sorted(set(printed) - set(declared))}"
            )
            for name, metric in printed.items():
                assert metric["unit"] == declared[name], (name, metric["unit"])
                assert math.isfinite(metric["value"]), (name, metric["value"])
            print(f"ok {workload} trace {trace}: {len(printed)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"correct={result['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

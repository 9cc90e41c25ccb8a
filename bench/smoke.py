"""Smoke-sized self-check of the benchmark.

    python3 bench/smoke.py

Runs every workload for a handful of ops, untraced and traced (twice), and
asserts that:

* each run exits 0 and its last line is a result with every op correct;
* the result carries exactly the metrics BENCHMARK.json names, each with
  its unit, and the report lines print each of them by name and unit;
* the report prints failed_ratio on every workload, final_loss on the two
  training workloads and decode_rel_err on codec_bulk;
* every per-layer count repeats exactly between the two traced runs.

Timings are not asserted.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Report-only figures, besides BENCHMARK.json's metrics, per workload.
_TIMING = {"ops_per_s": "1/s", "op_p10_ms": "ms", "op_p50_ms": "ms", "op_tail_ms": "ms",
           "calib_p50_ms": "ms", "failed_ratio": "ratio"}
REPORTED = {
    "coded_training": _TIMING | {"final_loss": "loss"},
    "secure_aggregation": _TIMING | {"final_loss": "loss"},
    "leakage_audit": _TIMING,
    "codec_bulk": _TIMING | {"decode_rel_err": "ratio"},
}

#: Per-layer metrics that are counts and must repeat exactly.
COUNT_SUFFIXES = ("_calls", ".messages", ".elements", ".rounds", ".subsets_evaluated",
                  ".searches_per_amplitude", "_bytes_in", "_bytes_out", ".bytes_written")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{where}: exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    return result, printed


def expect_metrics(where: str, result: dict, printed: dict, declared: dict) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise SystemExit(f"{where}: metrics {got} != BENCHMARK.json {declared}")
    for name, unit in declared.items():
        if printed.get(name) != unit:
            raise SystemExit(f"{where}: report line for {name} [{unit}] missing")


def main() -> None:
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        result, printed = run(workload, 0)
        expect_metrics(f"{workload} trace=0", result, printed, end_to_end)
        extra = {k: v for k, v in printed.items() if k not in end_to_end}
        if extra != REPORTED[workload]:
            raise SystemExit(f"{workload}: report-only figures {extra} != {REPORTED[workload]}")

        first, printed = run(workload, 1)
        expect_metrics(f"{workload} trace=1", first, printed, per_layer)
        second, _ = run(workload, 1)
        for name in per_layer:
            if name.endswith(COUNT_SUFFIXES):
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    raise SystemExit(f"{workload}: count {name} differs between traced runs: "
                                     f"{a} != {b}")
        print(f"ok {workload}", flush=True)


if __name__ == "__main__":
    main()

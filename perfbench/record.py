"""Summarize benchmark results into one trajectory entry.

Usage, from the root of a checkout, after running perfbench/run.py:

    python3 perfbench/record.py --seeds 101-110 --trace-seed 101 \
        --label seed --out perfbench/trajectory/00-seed.json

It reads ``.bench_work/result-<workload>-s<seed>-t<trace>.json`` for every
workload in BENCHMARK.json and every seed listed.  Per end-to-end metric it
writes the median, the quartiles and the spread (quartile distance over the
median) over the seeds.  It adds the per-layer table of the traced run made
with ``--trace-seed``, and the environment record of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,2,5")
    ap.add_argument("--trace-seed", type=int, required=True)
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    results = root / ".bench_work"
    seeds = seeds_of(args.seeds)
    entry = {"label": args.label, "seeds": seeds, "run_seconds": spec["run_seconds"],
             "end_to_end": {}, "runs": {}}
    for w in (x["name"] for x in spec["workloads"]):
        runs = [json.loads((results / f"result-{w}-s{s}-t0.json").read_text()) for s in seeds]
        entry["runs"][w] = [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                             "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                             "inputs": r["inputs"], "environment": r["environment"]}
                            for r in runs]
        table = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(values),
                                "bound": m["bound"], "n": len(values)}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        table["error_rate"] = {"unit": "share", "value": failed / attempted, "n": attempted}
        entry["end_to_end"][w] = table
    traced = json.loads((results / f"result-{spec['workloads'][0]['name']}"
                         f"-s{args.trace_seed}-t1.json").read_text())
    entry["per_layer"] = {"seed": args.trace_seed,
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                          "environment": traced["environment"]}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Summarize saved benchmark results of the current source tree.

    python3 perfbench/summarize.py [--last 10] [--write-baseline]

For every workload, takes the last ``--last`` results in ``.perfbench/results/``
whose sources match the checkout, and prints each metric's median, quartiles
and spread (inter-quartile distance over the median) against a third of the
metric's bound in BENCHMARK.json.  ``--write-baseline`` stores the medians as
``perfbench/baseline.json``, which ``run.py`` compares against when it has no
earlier result of its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import HERE, machine
from worker import ROOT, STATE, WORKLOADS, source_digest


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--last", type=int, default=10, help="results per workload (default 10)")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    digest = source_digest()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = STATE / "results" / f"{workload}-full-trace{trace}.jsonl"
            if not path.is_file():
                continue
            records = [json.loads(line) for line in path.read_text().splitlines()]
            records = [r for r in records if r["src_sha256"] == digest][-args.last:]
            if not records:
                continue
            names = list(records[0]["metrics"])
            summary = {n: {**summarize([r["metrics"][n]["value"] for r in records]),
                           "unit": records[0]["metrics"][n]["unit"]} for n in names}
            results[f"{workload}/trace{trace}"] = {
                "seeds": [r["seed"] for r in records],
                "failed": [r["failed"] for r in records],
                "attempted": [r["attempted"] for r in records],
                "correct": all(not r["errors"] for r in records),
                "metrics": summary,
            }
            print(f"{workload} trace={trace}: {len(records)} runs, seeds "
                  f"{[r['seed'] for r in records]}, correct={results[f'{workload}/trace{trace}']['correct']}")
            for name, s in summary.items():
                flag = ""
                if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                    flag = f"  <-- above a third of its bound {bounds[name]}"
                print(f"  {name:<40} median {s['value']:<14.6g} q1 {s['q1']:<14.6g} "
                      f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}{flag}")
    if args.write_baseline:
        first = json.loads((STATE / "results" / f"{WORKLOADS[0]}-full-trace0.jsonl")
                           .read_text().splitlines()[-1])
        doc = {
            "commit": first["commit"],
            "src_sha256": digest,
            "src_lines": first["src_lines"],
            "machine": machine(),
            "versions": first["versions"],
            "results": results,
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarise benchmark results files into one committed ``BENCH_<label>.json``.

Usage (from the root of a checkout, after runs of ``perfbench/run.py``):

    python scripts/bench_summary.py LABEL .perfbench/results/*.json --out-dir bench

For each workload the summary holds, over the runs given:

* ``end_to_end``: median and quartiles of every metric of the untraced runs;
* ``per_layer``: median of every metric of the traced runs;
* ``reference_s``: median time of the host reference kernel over all runs;
* ``correct``: whether every run reported no problem.

Each run is listed with its seed, trace flag, commit, correctness and the
sha256 of its residual ledger (every check's config, name, outcome,
residual and error, in order, without timings), so two summaries show
whether their runs computed the same numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path


def ledger_sha256(ledger) -> str:
    """Digest of the residual ledger of one run, timings left out."""
    items = [[op["config"], [[it["name"], it["kind"], it["passed"],
                              it.get("residual"), it["error"]] for it in op["items"]]]
             for op in ledger]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(label: str, results) -> dict:
    """The summary of the parsed results files ``results``."""
    runs, workloads = [], {}
    for res in results:
        meta = res["meta"]
        runs.append({"workload": meta["workload"], "seed": meta["seed"],
                     "trace": meta["trace"], "git_commit": meta["git_commit"],
                     "correct": not res["problems"],
                     "ledger_sha256": ledger_sha256(res["ledger"])})
        workloads.setdefault(meta["workload"], []).append(res)
    summary = {"label": label, "runs": runs, "workloads": {}}
    for name, group in sorted(workloads.items()):
        out = {"runs": len(group), "correct": all(not r["problems"] for r in group),
               "reference_s": statistics.median(t for r in group for t in r["reference_s"]),
               "end_to_end": {}, "per_layer": {}}
        for key, traced in (("end_to_end", 0), ("per_layer", 1)):
            chosen = [r for r in group if r["meta"]["trace"] == traced]
            for metric in chosen[0]["metrics"] if chosen else ():
                values = [r["metrics"][metric]["value"] for r in chosen]
                entry = _spread(values) if key == "end_to_end" else \
                    {"median": statistics.median(values)}
                out[key][metric] = dict(entry, unit=chosen[0]["metrics"][metric]["unit"],
                                        n=len(values))
        summary["workloads"][name] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    summary = summarise(args.label, [json.loads(p.read_text()) for p in args.results])
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

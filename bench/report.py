"""Run every workload over several seeds and print all metrics in one table.

    python3 bench/report.py --seeds 1-10 --trace-seeds 1

For each workload this runs ``run.py`` once per seed with tracing off and
once per trace seed with tracing on, then prints each metric by name with
its unit, the number of runs, the median op count per run, the median and
the quartiles over runs, and the spread (distance between the quartiles as
a share of the median).  End-to-end rows also show the bound from
``BENCHMARK.json``.  Every workload of ``BENCHMARK.json`` runs for its
``run_seconds``.  ``--record`` stores the medians, the corpus properties
and the commit they were measured at in ``record.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORD = BENCH / "record.json"
RUN_TIMEOUT_S = 180


def _seeds(text: str) -> list[int]:
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and spread of every metric over the runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--record", action="store_true", help="update record.json")
    args = parser.parse_args(argv)
    seconds = config["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    collected = {}
    for workload in (w["name"] for w in config["workloads"]):
        e2e = [run_once(workload, s, seconds, 0) for s in _seeds(args.seeds)]
        traced = [run_once(workload, s, seconds, 1) for s in _seeds(args.trace_seeds)]
        collected[workload] = {
            "end_to_end": summarize(e2e) if e2e else {},
            "per_layer": summarize(traced) if traced else {},
            "correct": all(run["correct"] for run in e2e + traced),
            "attempted": statistics.median(run["attempted"] for run in e2e or traced),
            "failed": sum(run["failed"] for run in e2e + traced),
        }
        print(
            f"\n{workload}: correct={collected[workload]['correct']} "
            f"failed={collected[workload]['failed']} "
            f"median ops per run={collected[workload]['attempted']}"
        )
        for kind in ("end_to_end", "per_layer"):
            for name, row in collected[workload][kind].items():
                bound = f"bound {bounds[name]:.2f}" if name in bounds else ""
                print(
                    f"  {name:34s} {row['median']:>12.6g} {row['unit']:12s} "
                    f"runs={row['runs']:<3d} q1={row['q1']:<11.5g} q3={row['q3']:<11.5g} "
                    f"spread={row['spread']:.3f} {bound}"
                )
    if args.record:
        write_record(collected, args, seconds)
    return 0


def write_record(collected: dict, args, seconds: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import corpus

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=ROOT
    ).stdout.strip()
    record = json.loads(RECORD.read_text())
    for name, result in collected.items():
        workload = corpus.WORKLOADS[name]
        entry = record["workloads"][name]
        entry["properties"] = corpus.properties(workload, corpus.generate(workload, 1))
        entry["seed_numbers"] = {
            "commit": commit,
            "seeds": args.seeds,
            "trace_seeds": args.trace_seeds,
            "seconds": seconds,
            "median_ops_per_run": result["attempted"],
            "metrics": {
                metric: {key: row[key] for key in ("median", "q1", "q3", "unit")}
                for kind in ("end_to_end", "per_layer")
                for metric, row in result[kind].items()
            },
        }
    RECORD.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py                       # every workload, seeds 1..10
    python3 perfbench/baseline.py --seeds 1 2 3 --trace 1
    python3 perfbench/baseline.py --write perfbench/baseline.json

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one run at a
time, for the file's ``run_seconds``.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, beside the
metric's bound; an end-to-end spread above a third of its bound is marked.
Exits 1 if any run failed a check or could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    seconds = bench["run_seconds"]
    record = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    # seeds in the outer loop, so a slow phase of the host falls on every
    # workload rather than on one
    all_runs: dict[str, list] = {workload: [] for workload in names}
    for seed in args.seeds:
        for workload in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                ok = False
                continue
            context = json.loads(next(l for l in lines if l.startswith("context "))[8:])
            all_runs[workload].append({"context": context, "result": json.loads(lines[-1])})
    for workload, runs in all_runs.items():
        if not runs:
            continue
        summary = {}
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, "
              f"check_fail_ratio {sum(r['result']['failed'] for r in runs)}"
              f"/{sum(r['result']['attempted'] for r in runs)}")
        for metric in metrics:
            name = metric["name"]
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
        # every traced span nests in a cli.main span, so the self times add
        # up to the traced wall time
        self_total = sum(s["median"] for n, s in summary.items() if n.endswith(".self_s"))
        for metric in metrics:
            name = metric["name"]
            stats = summary[name]
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f}" + ("  SPREAD > bound/3" if stats["spread"] > bound / 3 else "")
            elif name.endswith(".self_s") and self_total:
                stats["share_of_self_time"] = stats["median"] / self_total
                flag = f"{stats['share_of_self_time']:6.1%} of traced self time"
            print(f"  {name:<44} {stats['median']:>14.6g} {metric['unit']:<6} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:7.2%}  {flag}")
            if bound is not None:
                print("      values " + " ".join(f"{v:.6g}" for v in stats["values"]))
        record["workloads"][workload] = {
            "context": runs[0]["context"],
            "metrics": summary,
            "run_s": [r["context"]["run_s"] for r in runs],
            "checks": {"attempted": sum(r["result"]["attempted"] for r in runs),
                       "failed": sum(r["result"]["failed"] for r in runs)},
        }
        ok = ok and all(r["result"]["correct"] for r in runs)
    if args.write:
        # one file holds the last end-to-end and the last traced summary
        kept = json.loads(args.write.read_text(encoding="utf-8")) if args.write.exists() else {}
        kept["per_layer" if args.trace else "end_to_end"] = record
        args.write.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload theta-11a1 --seeds 1-10 [--seconds 40]

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
each end-to-end metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median, next to the metric's bound in
``BENCHMARK.json``.  The summary is also written to
``.perfbench_out/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().split("\n")[-1])
        results.append(res)
        print(f"seed {seed}: " + ", ".join(
            f"{n} {m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)
    summary = {"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
               "failed": sum(r["failed"] for r in results),
               "attempted": sum(r["attempted"] for r in results), "metrics": {}}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": metric["bound"], "unit": metric["unit"], "values": values,
        }
        print(f"{name}: median {median:.4g} {metric['unit']}, quartiles "
              f"{q1:.4g}..{q3:.4g}, spread {(q3 - q1) / median:.3f} "
              f"(bound {metric['bound']})")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

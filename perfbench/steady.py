"""Steadiness self-check: is the benchmark steady enough for its bounds?

Usage (from the root of a source checkout):

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` once per seed 1-10 for every workload in
``BENCHMARK.json``, for ``run_seconds`` each, in two sets that use the same
seeds.  For each workload and end-to-end metric it reports, per set, the
median and the spread (distance between the first and third quartile over
the median, as ``statistics.quantiles(n=4)`` gives them), and whether:

* the spread stays within the metric's bound, and below a third of it,
  the margin the benchmark aims for;
* the second set's median is within the bound of the first set's, in
  either direction.

Runs are sequential, so they never compete for the two cores.  The report
is printed and written to ``perfbench/_work/steady.json``.  Exits 1 if any
check fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{done.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs[w].append([])
            for seed in SEEDS:
                runs[w][-1].append(run_once(w, seed, seconds))
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v:.5g}" for k, v in runs[w][-1][-1].items()
                ), file=sys.stderr, flush=True)

    report, ok = {}, True
    for w in workloads:
        report[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r[name] for r in one_set] for one_set in runs[w]]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            # relative change of the second median; positive = worse
            change = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                change = -change
            row = {
                "medians": medians,
                "spreads": spreads,
                "bound": bound,
                "spread_ok": max(spreads) <= bound,
                "spread_under_third": max(spreads) <= bound / 3,
                "median_change": change,
                "medians_agree": abs(change) <= bound,
                "values": values,
            }
            ok = ok and row["spread_ok"] and row["medians_agree"]
            report[w][name] = row
            print(f"{w:14s} {name:18s} median {medians[0]:.6g}  "
                  f"spread {max(spreads):6.3f} / bound {bound:.2f}  "
                  f"change {change:+.3f}  "
                  f"{'ok' if row['spread_ok'] and row['medians_agree'] else 'FAIL'}"
                  f"{'' if row['spread_under_third'] else ' (spread above bound/3)'}")
    out = HERE / "_work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": list(SEEDS), "sets": SETS,
                               "seconds": seconds, "report": report}, indent=1))
    print(f"report: {out.relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

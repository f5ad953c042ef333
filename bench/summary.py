"""Run the benchmark on every workload and print each metric by name and unit.

Usage:
    python3 bench/summary.py                       # one seed, all workloads
    python3 bench/summary.py --seeds 1 2 3 4 5     # spread across seeds
    python3 bench/summary.py --seeds 11 12 13 \
        --compare bench/results/summary-a.json

With several seeds it prints, per workload and metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. ``--compare`` checks that each median is not worse than
that of an earlier summary file by more than the bound. Writes its own
summary to ``bench/results/summary-<label>.json``. Exits 1 when any run
fails, reports an incorrect result, or a comparison exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(better: str, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of it."""
    if before == 0:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    specs = {m["name"]: m for m in bench["end_to_end"]}
    before = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    status = 0
    for workload in names:
        results = [run_once(workload, seed, bench["run_seconds"])
                   for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        status |= not correct
        print(f"\n{workload}: seeds {args.seeds}, fail_ratio = "
              f"{failed}/{attempted} = {failed / attempted:g}, "
              f"correct = {correct}")
        print(f"  {'metric':46s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        summary[workload] = {}
        for name, spec in specs.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            summary[workload][name] = {"median": median, "values": values}
            bound = spec["bound"]
            line = (f"  {name:46s} {spec['unit']:6s} {median:12.6g} "
                    f"{q1:12.6g} {q3:12.6g} {rel:7.2%} {bound:6g}")
            old = before.get(workload, {}).get(name)
            if old is not None:
                worse = worse_by(spec["better"], old["median"], median)
                flag = "REGRESSED" if worse > bound else "ok"
                status |= worse > bound
                line += f"  vs {old['median']:.6g}: {worse:+.2%} worse {flag}"
            print(line)
    out = HERE / "results" / f"summary-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())

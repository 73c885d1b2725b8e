"""Steadiness report: run the benchmark on several seeds per workload and print,
for every end-to-end metric, the spread of its values next to its bound.

    python3 bench/steady.py [--workloads paper quantum enumerate] [--seeds 10]
                            [--trace-seeds 1] [--out FILE] [--compare FILE]

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  A metric whose
spread is wider than its bound in BENCHMARK.json is UNRESOLVED: a change of
that size could not be told from noise.  With --compare, each median is also
set against the median of an earlier report (say, the parent commit's), and a
metric that got worse by more than its bound is REGRESSED.  Runs go one at a
time.  --out writes every value, the versions and the machine as JSON.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    for line in lines:
        if line.lstrip().startswith("FAILED"):
            print(f"    {workload} seed {seed}: {line.strip()}", file=sys.stderr)
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in contract["workloads"]])
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    p.add_argument("--seconds", type=int, default=contract["run_seconds"])
    p.add_argument("--trace-seeds", type=int, default=0, help="traced runs per workload")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--compare", type=Path, default=None, help="an earlier --out report")
    p.add_argument("--label", default="")
    args = p.parse_args()

    metrics = {m["name"]: m for m in contract["end_to_end"]}
    base = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    seeds = list(range(1, args.seeds + 1))
    report = {"label": args.label, "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    unresolved = regressed = 0
    for workload in args.workloads:
        values = {name: [] for name in metrics}
        correct = True
        for seed in seeds:
            result, env = run_once(workload, seed, args.seconds, 0)
            correct &= result["correct"]
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        report["env"] = env
        layers = {}
        for seed in seeds[: args.trace_seeds]:
            result, _ = run_once(workload, seed, args.seconds, 1)
            correct &= result["correct"]
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        row = {"correct": correct, "end_to_end": {},
               "per_layer": {k: statistics.median(v) for k, v in layers.items()}}
        print(f"\n{workload}: correct={correct}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  status")
        for name, m in metrics.items():
            median, q1, q3, s = spread(values[name])
            status = "ok" if s <= m["bound"] / 3 else "wide" if s <= m["bound"] else "UNRESOLVED"
            if name == "setup_s":
                status += " (spread not gated)"
            elif status == "UNRESOLVED":
                unresolved += 1
            if base is not None:
                before = base["workloads"][workload]["end_to_end"][name]["median"]
                worse = (median - before) / before
                worse = worse if m["better"] == "lower" else -worse
                status += f"; vs base {worse:+.3f} worse"
                if worse > m["bound"]:
                    status += " REGRESSED"
                    regressed += 1
            print(f"  {name:<16} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.4f} "
                  f"{m['bound']:>6}  {status}")
            row["end_to_end"][name] = {"unit": m["unit"], "values": values[name],
                                       "median": median, "q1": q1, "q3": q3, "spread": s}
        report["workloads"][workload] = row
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nunresolved {unresolved}, regressed {regressed}")
    return 1 if unresolved or regressed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 --workloads all --out perfbench/baseline/spread.json

For every workload and end-to-end metric this prints the median of the
runs and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the bound in
BENCHMARK.json.  Runs go one after another, never in parallel, so they do
not compete for the processor.  --trace 1 collects per-layer metrics
instead and checks that the counts which should repeat exactly do.
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
sys.path.insert(0, str(HERE))

from workloads import operations  # noqa: E402

# counts that depend only on the operation list, never on the seed's values
EXACT = (
    "ops_per_pass", "partitions.objects", "partitions.constructed", "poly.terms_built",
    "poly.construct.calls", "series.ogf.calls", "permstats.words", "cli.commands",
    "input.warm_share",
)


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds(args.seeds):
            report = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "ops_per_pass": len(operations(workload, seed)), **report})
            print(f"{workload} seed {seed}: attempted {report['attempted']} "
                  f"failed {report['failed']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            entry = {"median": median, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["iqr_share"] = (q3 - q1) / median if median else 0.0
            if name in bounds:
                entry["bound"] = bounds[name]
            metrics[name] = entry
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, entry in metrics.items():
            if "iqr_share" not in entry:
                continue
            bound = entry.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if entry["iqr_share"] < bound / 3 else "WIDE"
                verdict = f"bound {bound}: {verdict}"
            print(f"{workload:<14} {name:<28} median {entry['median']:<12.6g} "
                  f"spread {entry['iqr_share']:.4f} {verdict}")
        for name in EXACT:
            values = {r["ops_per_pass"] for r in runs} if name == "ops_per_pass" else (
                set(metrics[name]["values"]) if name in metrics else None
            )
            if values is not None:
                print(f"{workload:<14} {name:<28} same on every seed: {len(values) == 1} "
                      f"({', '.join(str(v) for v in sorted(values))})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

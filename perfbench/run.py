"""pqtouchard benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload expand-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

A run replays the seed's operation list in fresh interpreters ("passes"),
one after another, until --seconds have gone by (at least three passes, or
two traced and two untraced with --trace 1).  Inside a pass one client
issues one operation at a time.  A fresh interpreter is what every command
line call pays: empty function caches and empty number tables.

Times are reported at reference speed (see reference.py), with the
measured value printed next to each.  Each operation's latency is its
median over the passes; op_p50_s and op_tail_s are the median of the
operation list and the value with exactly ten operations above it;
ops_per_s is the number of operations over the sum of their latencies.
setup_s is the median time from spawning a worker to the moment the
package is imported.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of the traced ones,
plus the ratio of traced to untraced throughput.  Human-readable lines
come first; the last line of stdout is one JSON object.  Exit status 0
means every operation was checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import normalized, reference, scale  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, operations, warm_share  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 9
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# layers each workload is meant not to use; the traced run reports them
BYPASSED = {
    "expand-cold": ("partitions", "permstats", "cli"),
    "eval-points": ("partitions", "permstats", "cli"),
    "enumerate-cli": ("series",),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Worker:
    """One worker interpreter, from spawn to exit."""

    def __init__(self, deadline: float, module: str = "pqtouchard"):
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "PQTOUCHARD_CACHE_DIR"}
        references = [reference() for _ in range(5)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "worker.py"), module],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
            self.raw_setup_s = time.perf_counter() - start
            self.setup_s = self.raw_setup_s * scale(references)
            if line != "ready\n":
                raise BenchError(f"worker did not import {module} from src/")
        except BaseException:
            self.stop()
            raise

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def run(self, config: dict) -> dict:
        try:
            out, _ = self.proc.communicate(json.dumps(config) + "\n", timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("a pass ran past the time limit") from None
        if self.proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker exited with status {self.proc.returncode}")
        return json.loads(out)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def entry_module(workload: str) -> str:
    """What the workload's user imports: the command line, or the library."""
    return "pqtouchard.cli" if workload == "enumerate-cli" else "pqtouchard"


def run_pass(ops, module, traced, deadline, tmp_dir, spans_path=None, faults=()) -> dict:
    worker = Worker(deadline, module)
    result = worker.run(
        {
            "ops": ops,
            "trace": traced,
            "tmp_dir": str(tmp_dir),
            "spans_path": str(spans_path) if spans_path else None,
            "faults": list(faults),
        }
    )
    result["setup_s"] = worker.setup_s
    result["raw_setup_s"] = worker.raw_setup_s
    result["normalized"] = normalized(result["latencies"], result["references"])
    return result


def op_medians(passes: list[dict], key: str = "normalized") -> list[float]:
    """Each operation's latency: the median over the passes that ran it."""
    return [statistics.median(col) for col in zip(*(p[key] for p in passes))]


def tail_rank(count: int) -> int:
    """Index, in ascending order, of the value with TAIL_BEYOND values above it."""
    return max(0, count - TAIL_BEYOND - 1)


def end_to_end(passes: list[dict], setup: list[float], key: str = "normalized") -> dict:
    """The five end-to-end metrics from `key` latencies and the given set-up times."""
    per_op = op_medians(passes, key)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": sorted(per_op)[tail_rank(len(per_op))],
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


def end_to_end_lines(values: dict, raw: dict, ops: int, passes: int, spawns: int) -> list[str]:
    notes = {
        "setup_s": f"median of {spawns} worker spawns",
        "ops_per_s": f"{ops} ops over the sum of their medians",
        "op_p50_s": f"median of {ops} ops, each the median of {passes} passes",
        "op_tail_s": f"p{100 * (tail_rank(ops) + 1) / ops:.1f}: "
        f"{ops - 1 - tail_rank(ops)} of {ops} ops beyond",
        "peak_rss_mb": f"median of {passes} workers",
    }
    return [
        f"{name:<12} {values[name]:<14.6g} {END_TO_END_UNITS[name]:<4} "
        f"(measured {raw[name]:.6g}; {notes[name]})"
        for name in END_TO_END_UNITS
    ]


def per_layer(traced: list[dict], untraced: list[dict], ops: list[dict]) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's value."""

    def layer_self(t, layer):
        return sum(v for k, v in t["self_s"].items() if k.startswith(layer + "."))

    def metrics(p):
        t = p["trace"]
        calls, self_s, counters = t["calls"], t["self_s"], t["counters"]
        objects = counters.get("partitions.objects", 0)
        constructed = calls.get("partitions.construct", 0)
        inclusive = counters.get("partitions.enumerate.inclusive_s", 0)
        m = {
            "poly.construct.calls": calls.get("poly.construct", 0),
            "poly.construct.self_s": self_s.get("poly.construct", 0.0),
            "poly.mul.calls": calls.get("poly.mul", 0),
            "poly.mul.self_s": self_s.get("poly.mul", 0.0),
            "poly.add.self_s": self_s.get("poly.add", 0.0),
            "poly.substitute.self_s": self_s.get("poly.substitute", 0.0),
            "poly.terms_built": counters.get("poly.terms_built", 0),
            "poly.max_terms": counters.get("poly.max_terms", 0),
            "poly.evaluate.calls": calls.get("poly.evaluate", 0),
            "poly.evaluate.self_s": self_s.get("poly.evaluate", 0.0),
            "touchard.s_pq.self_s": self_s.get("touchard.s_pq", 0.0),
            "touchard.poly.self_s": self_s.get("touchard.poly", 0.0),
            "touchard.poly.cache_hits": p["cache_hits"],
            "touchard.eval.self_s": self_s.get("touchard.eval", 0.0),
            "touchard.oracle.self_s": self_s.get("touchard.oracle", 0.0),
            "series.compose.self_s": self_s.get("series.compose", 0.0),
            "series.ogf.calls": calls.get("series.ogf", 0),
            "series.ogf.self_s": self_s.get("series.ogf", 0.0),
            "tables.calls": t["entries"].get("tables", 0),
            "partitions.objects": objects,
            "partitions.objects_per_s": (
                counters.get("partitions.yielded", 0) / inclusive if inclusive else 0.0
            ),
            "partitions.constructed": constructed,
            "partitions.useful_ratio": objects / constructed if constructed else 0.0,
            "partitions.enumerate.self_s": self_s.get("partitions.enumerate", 0.0),
            "partitions.construct.self_s": self_s.get("partitions.construct", 0.0),
            "partitions.stats.calls": calls.get("partitions.stats", 0),
            "partitions.stats.self_s": self_s.get("partitions.stats", 0.0),
            "partitions.dist.self_s": self_s.get("partitions.dist", 0.0),
            "partitions.count.self_s": self_s.get("partitions.count", 0.0),
            "permstats.words": counters.get("permstats.words", 0),
            "cli.commands": calls.get("cli.main", 0),
            "cli.render.self_s": layer_self(t, "cli"),
            "cli.bytes_out": p["bytes_out"],
            "input.objects_per_op": objects / len(ops),
        }
        for layer in LAYERS:
            if layer != "cli":
                m[f"{layer}.self_s"] = layer_self(t, layer)
        return m

    per_pass = [metrics(p) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}

    out["trace.overhead_ratio"] = sum(op_medians(untraced)) / sum(op_medians(traced))
    out["input.warm_share"] = warm_share(ops)
    return out


PER_LAYER_UNITS_SUFFIX = {
    ".self_s": "s",
    ".calls": "count",
    "_per_s": "1/s",
    "_ratio": "ratio",
    ".bytes_out": "bytes",
    ".warm_share": "ratio",
}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS_SUFFIX.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    ops = operations(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    untraced, traced = [], []
    try:
        while True:
            enough = (
                len(traced) >= 2 and len(untraced) >= 2
                if trace
                else len(untraced) >= MIN_PASSES
            )
            if enough and time.monotonic() - started >= seconds:
                break
            traced_pass = trace and len(traced) < len(untraced)
            result = run_pass(
                ops, entry_module(workload), traced_pass, deadline, tmp_dir,
                spans_path=spans_path if traced_pass and not traced else None,
            )
            (traced if traced_pass else untraced).append(result)
        spawns = [(p["setup_s"], p["raw_setup_s"]) for p in untraced + traced]
        while not trace and len(spawns) < MIN_SETUP_SAMPLES:
            probe = Worker(deadline, entry_module(workload))
            spawns.append((probe.setup_s, probe.raw_setup_s))
            probe.run({"ops": [], "trace": False, "tmp_dir": str(tmp_dir)})
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    passes = untraced + traced
    attempted = len(ops) * len(passes)
    failures = [
        (n, int(i), reason)
        for n, p in enumerate(passes)
        for i, reason in sorted(p["failures"].items(), key=lambda kv: int(kv[0]))
    ]
    for n, i, reason in failures[:10]:
        print(f"FAILED pass {n} op {i} {ops[i]}: {reason}", file=sys.stderr)

    print(f"workload {workload}  seed {seed}  {len(ops)} ops per pass  "
          f"{len(untraced)} untraced + {len(traced)} traced passes")
    print(f"failed_ratio {len(failures) / attempted:<14.6g} 1    "
          f"({len(failures)} of {attempted} operations)")
    if trace:
        values = per_layer(traced, untraced, ops)
        for name, value in values.items():
            print(f"{name:<28} {value:<14.6g} {_unit(name)}")
        busy = statistics.median(sum(p["latencies"]) for p in traced)
        for layer in BYPASSED[workload]:
            share = values[f"{layer}.self_s" if layer != "cli" else "cli.render.self_s"] / busy
            print(f"bypass {layer:<11} {100 * share:.3f}% of traced busy time")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        units = {name: _unit(name) for name in values}
    else:
        values = end_to_end(untraced, [s for s, _ in spawns])
        raw = end_to_end(untraced, [s for _, s in spawns], key="latencies")
        for line in end_to_end_lines(values, raw, len(ops), len(untraced), len(spawns)):
            print(line)
        units = END_TO_END_UNITS
    largest = max(p["max_terms"] for p in passes)
    if largest:
        print(f"largest result polynomial: {largest} terms")
    print(f"share of evaluations on an already built polynomial: {warm_share(ops):.4f}")

    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return report, 0 if not failures else 1


def self_test() -> int:
    """Corrupt one result of every kind after timing and require each caught."""
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(exist_ok=True)
    status = 0
    try:
        for workload in WORKLOADS:
            ops = operations(workload, 0)
            first = {}
            for i, op in enumerate(ops):
                first.setdefault(op["argv"][0] if op["kind"] == "cli" else op["kind"], i)
            faults = sorted(first.values())
            result = run_pass(
                ops, entry_module(workload), False, deadline, tmp_dir, faults=faults
            )
            caught = {int(i) for i in result["failures"]}
            missed = [ops[i] for i in faults if i not in caught]
            verdict = "ok" if not missed else f"MISSED {missed}"
            print(f"{workload}: {len(faults)} corrupted results, "
                  f"{len(caught)} failures counted: {verdict}")
            status |= bool(missed)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="check that the checkers count a corrupted result as a failure",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pqtouchard" / "__init__.py").is_file():
        print(f"error: no pqtouchard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        report, status = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Run, check and optionally trace one pass of operations inside a worker."""

import dataclasses
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

import pqtouchard

import checks
from reference import reference
from tracer import Tracer, install


def _callable(op: dict, index: int, tmp_dir: str):
    """A zero-argument call for one operation; inputs are parsed here, untimed."""
    touchard = pqtouchard.touchard
    kind = op["kind"]
    if kind == "poly":
        return lambda: touchard.touchard_poly(op["n"], op["route"])
    if kind == "series":
        return lambda: touchard.touchard_series(op["order"])
    if kind == "s_pq":
        return lambda: touchard.s_pq(op["n"], op["k"])
    if kind == "verify":
        return lambda: touchard.verify_identity(op["identity"])
    if kind in ("eval", "oracle"):
        x, p, q = (Fraction(op[v]) for v in "xpq")
        if kind == "eval":
            return lambda: touchard.touchard_eval(op["n"], x, p, q)
        return lambda: touchard.taylor_oracle(x, p, q, op["order"])
    path = os.path.join(tmp_dir, f"op{index}.out")
    argv = op["argv"] + ["--out", path]
    return lambda: (pqtouchard.cli.main(argv), path)


def _corrupt(result):
    """A wrong version of a result, for the self-test of the checkers."""
    if isinstance(result, pqtouchard.MultiPoly):
        return result + 1
    if isinstance(result, pqtouchard.EgfSeries):
        coeffs = list(result)
        return type(result)(coeffs[:-1] + [coeffs[-1] + 1])
    if isinstance(result, pqtouchard.VerificationReport):
        return dataclasses.replace(result, cells=result.cells + (("injected", False),))
    if isinstance(result, Fraction):
        return result + 1
    if isinstance(result, list):
        return result[:-1] + [result[-1] + 1]
    status, path = result
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    last = max(i for i, ch in enumerate(text) if ch.isdigit())
    text = text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1 :]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return result


def _check(ops: list[dict], results: list, failures: dict[int, str]) -> dict:
    """Check every result that did not raise; return counts seen on the way."""
    by_n: dict[int, list[int]] = {}
    oracles: dict[int, list] = {}
    evals: dict[int, dict[int, Fraction]] = {}
    for i, op in enumerate(ops):
        if i in failures:
            continue
        if op["kind"] == "poly":
            by_n.setdefault(op["n"], []).append(i)
        elif op["kind"] == "oracle":
            oracles[op["group"]] = results[i]
        elif op["kind"] == "eval":
            evals.setdefault(op["group"], {})[op["n"]] = results[i]

    seen = {"max_terms": 0, "bytes_out": 0}
    for i, op in enumerate(ops):
        if i in failures:
            continue
        kind, result = op["kind"], results[i]
        try:
            if kind == "poly":
                reason = checks.check_touchard(op["n"], result)
                if not reason and any(results[j] != result for j in by_n[op["n"]]):
                    reason = f"routes disagree on T_{op['n']}"
                seen["max_terms"] = max(seen["max_terms"], len(result.to_json_obj()))
            elif kind == "series":
                reason = checks.check_series(op["order"], result)
            elif kind == "s_pq":
                reason = checks.check_s_pq(op["n"], op["k"], result)
            elif kind == "verify":
                reason = checks.check_report(result)
            elif kind == "eval":
                reason = checks.check_eval(op, result, oracles.get(op["group"]))
            elif kind == "oracle":
                reason = checks.check_oracle(op, result, evals.get(op["group"], {}))
            else:
                status, path = result
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                seen["bytes_out"] += len(text.encode())
                os.remove(path)
                reason = checks.check_cli(op["argv"], status, text)
        except Exception as exc:  # a result the checker cannot read is wrong
            reason = f"checker raised {type(exc).__name__}: {exc}"
        if reason:
            failures[i] = reason
    return seen


def run(config: dict) -> dict:
    ops = config["ops"]
    tracer = Tracer() if config["trace"] else None
    originals = install(tracer, pqtouchard) if tracer else {}
    poly_fn = originals.get("touchard.poly", pqtouchard.touchard.touchard_poly)
    cache_info = getattr(poly_fn, "cache_info", None)
    hits_before = cache_info().hits if cache_info else 0

    calls = [_callable(op, i, config["tmp_dir"]) for i, op in enumerate(ops)]
    results, latencies, failures = [], [], {}
    references = [reference()]
    for i, call in enumerate(calls):
        if tracer:
            tracer.begin(i)
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed operation
            result = None
            failures[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - start)
        if tracer:
            tracer.end()
        results.append(result)
        references.append(reference())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    hits = (cache_info().hits if cache_info else 0) - hits_before

    for i in config.get("faults", ()):
        results[i] = _corrupt(results[i])
    seen = _check(ops, results, failures)

    out = {
        "latencies": latencies,
        "references": references,
        "failures": {str(i): reason for i, reason in failures.items()},
        "peak_rss_kb": peak_kb,
        "cache_hits": hits,
        **seen,
    }
    if tracer:
        out["trace"] = tracer.summary()
        if config.get("spans_path"):
            tracer.write_spans(config["spans_path"])
    return out


def serve(protocol):
    """Answer one config line on stdin with one result line on `protocol`."""
    config = json.loads(sys.stdin.readline())
    protocol.write(json.dumps(run(config)) + "\n")
    protocol.flush()

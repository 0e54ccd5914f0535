"""Command-line surface.

Exit codes: 0 success, 1 a requested verification failed, 2 usage or
input error.  All output is deterministic: same argv, same bytes.
With --out the output goes to a file only once the command has succeeded
or its verification has failed; an error leaves the file as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice

from . import partitions, permstats, touchard
from .partitions import nsb, nse
from .poly import MultiPoly
from .tables import (
    _check_n,
    bell,
    binomial,
    factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)

_TRIANGLES = {
    "binomial": binomial,
    "stirling2": stirling2,
    "stirling1": stirling1_unsigned,
    "stirling1-signed": stirling1_signed,
}
_SEQUENCES = {"bell": bell, "factorial": factorial}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact rational") from exc


def _parse_assignment(text: str) -> dict[str, Fraction]:
    # T_n is a polynomial in x, p and q only
    point = {}
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or name not in ("x", "p", "q"):
            raise ValueError(
                f"bad assignment {piece!r}: expected var=value with var in x, p, q"
            )
        if name in point:
            raise ValueError(f"bad assignment {text!r}: {name} is given twice")
        point[name] = _parse_fraction(value.strip())
    return point


@dataclass(frozen=True)
class _Output:
    """A command's exit status and its result in each of the three formats.

    Every format is a function that the emitter calls only for the format
    asked for, so the others are never built; csv rows, plain lines and a
    json array (given as an iterator of its items) may be lazy.
    """

    payload: Callable[[], object]
    rows: Callable[[], Iterable]
    lines: Callable[[], Iterable]
    status: int = 0


def _json_array(items: Iterator, encoder: json.JSONEncoder) -> Iterator[str]:
    # encoder.iterencode(list(items)) without the list: batches of 1000 items,
    # enough to amortise each encode call, are written without their brackets
    sep = "["
    for batch in iter(lambda: list(islice(items, 1000)), []):
        yield sep + encoder.encode(batch)[1:-2]
        sep = ","
    yield "[]" if sep == "[" else "\n]"


def _emit(output: _Output, fmt: str, handle) -> None:
    if fmt == "json":
        # streamed chunk by chunk: json.dumps would join the whole text first;
        # a lazy payload is an array that is never held whole
        encoder = json.JSONEncoder(indent=2)
        payload = output.payload()
        if isinstance(payload, Iterator):
            handle.writelines(_json_array(payload, encoder))
        else:
            handle.writelines(encoder.iterencode(payload))
        handle.write("\n")
    elif fmt == "csv":
        csv.writer(handle, lineterminator="\n").writerows(output.rows())
    else:
        for line in output.lines():
            print(line, file=handle)


def _emit_to_file(output: _Output, fmt: str, path: str) -> None:
    """Write through a sibling temporary file that replaces path only when
    the whole output was written, so a failed command leaves path as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            _emit(output, fmt, handle)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _value_output(n: int, inputs: dict, value, check=None) -> _Output:
    """One value with the inputs that gave it; check = (label, other) also
    reports an independent computation of it and fails unless they agree."""
    payload = {"n": n, **{name: str(v) for name, v in inputs.items()}}
    payload["value"] = str(value)
    header = ["n", *inputs, "value"]
    row = [n, *inputs.values(), value]
    lines = [value]
    status = 0
    if check is not None:
        label, other = check
        equal = other == value
        status = 0 if equal else 1
        payload.update({label: str(other), "equal": equal})
        header += [label, "equal"]
        row += [other, equal]
        lines += [f"{label} {other}", "EQUAL" if equal else "MISMATCH"]
    return _Output(lambda: payload, lambda: [header, row], lambda: lines, status)


def _cmd_table(args) -> _Output:
    if args.nmax < 0:
        raise ValueError("--nmax must be nonnegative")
    name, nmax = args.name, args.nmax
    if name in _TRIANGLES:
        fn = _TRIANGLES[name]
        rows = [[fn(n, k) for k in range(n + 1)] for n in range(nmax + 1)]
        return _Output(
            lambda: {
                "name": name,
                "nmax": nmax,
                "rows": [[str(v) for v in row] for row in rows],
            },
            lambda: rows,
            lambda: (" ".join(map(str, row)) for row in rows),
        )
    if name in _SEQUENCES:
        fn = _SEQUENCES[name]
        values = [fn(n) for n in range(nmax + 1)]
        return _Output(
            lambda: {"name": name, "nmax": nmax, "values": [str(v) for v in values]},
            lambda: chain([["n", "value"]], enumerate(values)),
            lambda: values,
        )
    # Q_n is the coefficient n + 1 of exp_q
    polys = touchard.exp_q(nmax + 1, MultiPoly.var(args.var) - 1)[1:]
    return _Output(
        lambda: {
            "name": name,
            "var": args.var,
            "nmax": nmax,
            "polys": [p.to_json_obj() for p in polys],
        },
        lambda: chain([["n", "poly"]], enumerate(polys)),
        lambda: polys,
    )


# T_n has at most n(n+1)(n+2)/6 terms, one per x^k p^m q^l with m < k and
# l <= n - k.  The largest n within this budget, 95, is built and written in
# about 1.3 s and 143 MB on the slowest route (substitution, the default) and
# in under 1 s and 114 MB on the other two (cold process, --out, 2-vCPU VM).
EXPAND_TERM_BUDGET = 150_000


def _cmd_expand(args) -> _Output:
    _check_n(args.n)
    terms = args.n * (args.n + 1) * (args.n + 2) // 6
    if terms > EXPAND_TERM_BUDGET and not args.force:
        raise ValueError(
            f"expand for n={args.n} builds up to {partitions._size(terms)} terms, "
            f"over the budget of {EXPAND_TERM_BUDGET}; pass --force to run it anyway"
        )
    poly = touchard.touchard_poly(args.n, args.route)
    if args.at is not None:
        point = _parse_assignment(args.at)
        value = poly.evaluate(point)
        return _Output(
            lambda: {
                "n": args.n,
                "route": args.route,
                "at": {k: str(v) for k, v in point.items()},
                "value": str(value),
            },
            lambda: [["value"], [value]],
            lambda: [value],
        )
    return _Output(
        lambda: {"n": args.n, "route": args.route, "poly": poly.to_json_obj()},
        lambda: chain(
            [[*poly.variables, "coeff"]],
            ([*exps, coeff] for exps, coeff in poly.sorted_terms()),
        ),
        lambda: [poly],
    )


def _cmd_eval(args) -> _Output:
    x = _parse_fraction(args.x)
    p = _parse_fraction(args.p)
    q = _parse_fraction(args.q)
    if args.oracle and (p == 1 or q == 1):
        raise ValueError(
            "--oracle needs p != 1 and q != 1 (its series has exponents "
            "1/(1-p) and 1/(1-q)); run eval without --oracle at this point"
        )
    value = touchard.touchard_eval(args.n, x, p, q)
    check = None
    if args.oracle:
        coeffs = touchard.taylor_oracle(x, p, q, args.n)
        check = ("oracle", coeffs[args.n] * factorial(args.n))
    return _value_output(args.n, {"x": x, "p": p, "q": q}, value, check)


def _cmd_enumerate(args) -> _Output:
    stream = partitions.enumerate_partitions(args.n, args.k, args.flavor, force=args.force)
    header = ["partition", "nsb", "nse"] if args.stats else ["partition"]

    # the three formats share the one stream; the emitter drains only one
    def records():
        for pi in stream:
            yield [pi.to_string(), nsb(pi), nse(pi)] if args.stats else [pi.to_string()]

    return _Output(
        lambda: (dict(zip(header, record)) for record in records()),
        lambda: chain([header], records()),
        lambda: (" ".join(map(str, record)) for record in records()),
    )


def _dist_grid_rows(n, k, poly):
    cols = range(max(k, 1))
    rows = [["v\\u"] + [str(i) for i in cols]]
    for j in range(max(n - k, 0) + 1):
        rows.append(
            [str(j)] + [str(poly.monomial_coefficient({"u": i, "v": j})) for i in cols]
        )
    return rows


def _cmd_dist(args) -> _Output:
    _check_n(args.n)
    formula = touchard.s_uv(args.n, args.k)
    grid = partial(_dist_grid_rows, args.n, args.k, formula)
    if not args.oracle:
        return _Output(
            lambda: {"n": args.n, "k": args.k, "poly": formula.to_json_obj()},
            grid,
            lambda: [formula],
        )
    report = touchard.stat_report(args.n, args.k, force=args.force)
    failed = ", ".join(name for name, ok in report.checks if not ok)
    if failed:
        print(f"verification failed: {failed}", file=sys.stderr)
    return _Output(
        lambda: {
            "n": args.n,
            "k": args.k,
            "poly": formula.to_json_obj(),
            "enumeration": report.poly.to_json_obj(),
            "cardinality": str(report.cardinality),
            "checks": dict(report.checks),
            "passed": report.passed,
        },
        grid,
        lambda: [
            f"formula      {formula}",
            f"enumeration  {report.poly}",
            f"cardinality  {report.cardinality}",
            "EQUAL" if report.passed else f"MISMATCH ({failed})",
        ],
        0 if report.passed else 1,
    )


def _cmd_verify(args) -> _Output:
    names = touchard.IDENTITY_NAMES if args.identity == "all" else (args.identity,)
    reports = [touchard.verify_identity(name, args.nmax, args.force) for name in names]
    return _Output(
        lambda: {
            "reports": [
                {
                    "identity": r.identity,
                    "nmax": r.n_max,
                    "cells": len(r.cells),
                    "failures": r.failures,
                    "passed": r.passed,
                    "first_counterexample": r.first_counterexample,
                }
                for r in reports
            ]
        },
        lambda: chain(
            [["identity", "nmax", "cells", "failures", "passed"]],
            (
                [r.identity, r.n_max, len(r.cells), r.failures, r.passed]
                for r in reports
            ),
        ),
        lambda: [r.summary() for r in reports],
        0 if all(r.passed for r in reports) else 1,
    )


def _cmd_avg_nse(args) -> _Output:
    value = touchard.avg_nse(args.n)
    check = None
    if args.check:
        # every cell is checked before the first is enumerated; nsb is 0 on slp
        ks = range(1, args.n + 1)
        for k in ks:
            partitions._check_size(args.n, k, "slp", False, hint="use a smaller n")
        tallies = [partitions.dist_poly(args.n, k, flavor="slp") for k in ks]
        moved = sum(j * t.monomial_coefficient({"v": j}) for t in tallies for j in ks)
        objects = sum(t.evaluate({"u": 1, "v": 1}) for t in tallies)
        check = ("enumeration", Fraction(moved, objects))
    return _value_output(args.n, {}, value, check)


def _cmd_perm_stats(args) -> _Output:
    n = args.n
    nse_counts = permstats.nse_distribution(n)
    ltr_counts = permstats.ltr_max_distribution(n)
    rows = [["j", "nse_count", "k", "ltrmax_count"]]
    rows += [[j, nse_counts[j], n - j, ltr_counts[n - j]] for j in range(n)]
    return _Output(
        lambda: {"n": n, "nse": nse_counts, "ltr_max": ltr_counts},
        lambda: rows,
        lambda: (" ".join(map(str, row)) for row in rows),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqtouchard",
        description="Exact deformed Touchard polynomials and partition statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, force=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("plain", "json", "csv"), default="plain",
            help="output format (default plain)",
        )
        p.add_argument("--out", metavar="PATH", help="write output to this file")
        if force:
            p.add_argument(
                "--force", action="store_true",
                help="lift the size budget: run a refused request anyway",
            )
        p.set_defaults(handler=handler)
        return p

    p = add("table", "print a number table", _cmd_table)
    p.add_argument(
        "--name", required=True,
        choices=tuple(_TRIANGLES) + tuple(_SEQUENCES) + ("q-product",),
    )
    p.add_argument("--nmax", type=int, required=True, help="last row to print")
    p.add_argument(
        "--var", choices=("p", "q"), default="q",
        help="variable of the q-product polynomials",
    )

    p = add("expand", "print T_n(x;p,q)", _cmd_expand, force=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--route", choices=touchard.ROUTES, default="substitution",
        help="computation route (all agree)",
    )
    p.add_argument(
        "--at", metavar="ASSIGN",
        help="evaluate at e.g. x=1/2,p=2,q=3 instead of printing the polynomial",
    )

    p = add("eval", "evaluate T_n at a rational point", _cmd_eval)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument(
        "--oracle", action="store_true",
        help="cross-check against the series oracle (needs p != 1 and q != 1)",
    )

    p = add("enumerate", "list all partitions of one flavor", _cmd_enumerate, force=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--flavor", required=True, choices=partitions.FLAVORS)
    p.add_argument("--stats", action="store_true", help="append nsb and nse columns")

    p = add("dist", "joint nsb/nse distribution polynomial", _cmd_dist, force=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--oracle", action="store_true",
        help="also enumerate and compare against the closed form",
    )

    p = add("verify", "check a named identity cell by cell", _cmd_verify, force=True)
    p.add_argument(
        "--identity", required=True,
        choices=touchard.IDENTITY_NAMES + ("all",),
    )
    p.add_argument(
        "--nmax", type=int,
        help="check cells up to this n (default: per-identity budget)",
    )

    p = add("avg-nse", "average nse over all sets-of-lists of [n]", _cmd_avg_nse)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--check", action="store_true",
        help="cross-check the formula by full enumeration",
    )

    p = add(
        "perm-stats",
        "nse and left-to-right-maxima distributions over S_n",
        _cmd_perm_stats,
    )
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a separate value like -7/5 as an option (only -1-like
    # numbers pass), so a dash-led value of --x, --p or --q joins its option
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--x", "--p", "--q") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) itself
        return int(exc.code or 0)
    try:
        output = args.handler(args)
        if args.out:
            _emit_to_file(output, args.format, args.out)
        else:
            try:
                _emit(output, args.format, sys.stdout)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader went away (e.g. `| head`); stdout now points at
                # devnull, so the interpreter's final flush has nowhere to fail
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return output.status


if __name__ == "__main__":
    sys.exit(main())

"""Off-the-clock correctness checks, independent of the timed code paths.

Reference numbers come from this module's own recurrences and from
math.comb/math.factorial, never from pqtouchard.tables.  Polynomials are
read through their public JSON wire format, and command output is parsed
from the files the command wrote.  Every checker returns None when the
result is right and a short reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from fractions import Fraction
from functools import cache
from math import comb, factorial


@cache
def stirling2_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = stirling2_row(n - 1) + (0,)
    return (0,) + tuple(k * prev[k] + prev[k - 1] for k in range(1, n + 1))


@cache
def cycles_row(n: int) -> tuple[int, ...]:
    """Unsigned Stirling numbers of the first kind c(n, k), k = 0..n."""
    if n == 0:
        return (1,)
    prev = cycles_row(n - 1) + (0,)
    return (0,) + tuple((n - 1) * prev[k] + prev[k - 1] for k in range(1, n + 1))


def s2(n: int, k: int) -> int:
    return stirling2_row(n)[k] if 0 <= k <= n else 0


def c1(n: int, k: int) -> int:
    return cycles_row(n)[k] if 0 <= k <= n else 0


def bell(n: int) -> int:
    return sum(stirling2_row(n))


def flavor_count(n: int, k: int, flavor: str) -> int:
    if n == 0 or k <= 0:
        return int(n == 0 and k == 0)
    return {
        "ssp": s2(n, k),
        "lsp": factorial(k) * s2(n, k),
        "slp": factorial(n) // factorial(k) * comb(n - 1, k - 1),
        "llp": factorial(n) * comb(n - 1, k - 1),
    }[flavor]


def expected_suv(n: int, k: int) -> dict[tuple[int, int], int]:
    """[u^i v^j] of the nsb/nse distribution: c(n,n-j) S(n-j,k) c(k,k-i)."""
    if n == 0 and k == 0:
        return {(0, 0): 1}
    out = {}
    for j in range(n - k + 1):
        outer = c1(n, n - j) * s2(n - j, k)
        for i in range(k + 1):
            value = outer * c1(k, k - i)
            if value:
                out[(i, j)] = value
    return out


def expected_spq(n: int, k: int) -> dict[tuple[int, int], int]:
    """expected_suv with u = p - 1 and v = q - 1, expanded by the binomial theorem."""
    out: dict[tuple[int, int], int] = defaultdict(int)
    for (i, j), value in expected_suv(n, k).items():
        for a in range(i + 1):
            left = value * comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                out[(a, b)] += left * comb(j, b) * (-1) ** (j - b)
    return {key: v for key, v in out.items() if v}


def json_terms(items, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Terms of a polynomial in its JSON wire format, keyed over `names`."""
    out = {}
    for item in items:
        exps = item["exponents"]
        if set(exps) - set(names):
            raise ValueError(f"unexpected variables {sorted(exps)}")
        out[tuple(int(exps.get(v, 0)) for v in names)] = int(item["coeff"])
    return out


def poly_terms(poly, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    return json_terms(poly.to_json_obj(), names)


def parse_poly_text(text: str, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Parse the plain rendering, e.g. `2*u*v^2 + u - 3`."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    if len(tokens) % 2 == 0 or any(t not in ("+", "-") for t in tokens[1::2]):
        raise ValueError(f"cannot parse {text!r}")
    pieces = [(1, tokens[0])] + [
        (1 if sign == "+" else -1, term)
        for sign, term in zip(tokens[1::2], tokens[2::2])
    ]
    out = {}
    for sign, term in pieces:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coeff, exps = 1, dict.fromkeys(names, 0)
        for factor in term.split("*"):
            if factor.isdigit():
                coeff = int(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in exps:
                raise ValueError(f"unexpected factor {factor!r}")
            exps[name] = int(power) if power else 1
        key = tuple(exps[v] for v in names)
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = sign * coeff
    return out


# -- polynomials and series ----------------------------------------------------


def check_touchard(n: int, poly) -> str | None:
    """T_n at p = q = 1 has Stirling-2 coefficients, at p = q = 2 n!C(n-1,k-1)."""
    terms = poly_terms(poly, ("x", "p", "q"))
    if n == 0:
        return None if terms == {(0, 0, 0): 1} else "T_0 != 1"
    at1: dict[int, int] = defaultdict(int)
    at2: dict[int, int] = defaultdict(int)
    for (k, m, l), coeff in terms.items():
        at1[k] += coeff
        at2[k] += coeff << (m + l)
    want1 = {k: s2(n, k) for k in range(1, n + 1)}
    want2 = {k: factorial(n) * comb(n - 1, k - 1) for k in range(1, n + 1)}
    if {k: v for k, v in at1.items() if v} != want1:
        return f"T_{n} at p=q=1 is not the Stirling-2 row"
    if {k: v for k, v in at2.items() if v} != want2:
        return f"T_{n} at p=q=2 is not n!*x*(1+x)^(n-1)"
    return None


def check_series(order: int, series) -> str | None:
    if len(series) != order + 1:
        return f"series has {len(series)} coefficients, expected {order + 1}"
    for n in range(order + 1):
        reason = check_touchard(n, series[n])
        if reason:
            return f"entry {n}: {reason}"
    return None


def check_s_pq(n: int, k: int, poly) -> str | None:
    if poly_terms(poly, ("p", "q")) != expected_spq(n, k):
        return f"s_pq({n},{k}) differs from the shifted closed form"
    return None


def check_report(report) -> str | None:
    if not report.cells:
        return f"{report.identity}: no cells checked"
    return None if report.passed else f"{report.identity}: {report.first_counterexample}"


# -- rational evaluation -------------------------------------------------------


def special_value(n: int, x: Fraction, p: Fraction, q: Fraction) -> Fraction | None:
    """T_n(x) at p = q = 1 (Touchard) and p = q = 2; None elsewhere."""
    if p == q == 1:
        return sum((s2(n, k) * x**k for k in range(n + 1)), Fraction(0))
    if p == q == 2:
        return Fraction(1) if n == 0 else factorial(n) * x * (1 + x) ** (n - 1)
    return None


def check_eval(op: dict, value, oracle) -> str | None:
    """Compare with the specialization, or with the oracle at the same point."""
    n = op["n"]
    x, p, q = (Fraction(op[v]) for v in "xpq")
    want = special_value(n, x, p, q)
    if want is None:
        if oracle is None:
            return "no oracle result at this point"
        want = oracle[n] * factorial(n)
    return None if value == want else f"T_{n}({x};{p},{q}) = {value}, expected {want}"


def check_oracle(op: dict, coeffs, evals: dict[int, Fraction]) -> str | None:
    """Entry n is T_n/n!: compare with the specialization or with the evals."""
    order = op["order"]
    x, p, q = (Fraction(op[v]) for v in "xpq")
    if len(coeffs) != order + 1 or coeffs[0] != 1:
        return "oracle list has the wrong length or constant term"
    for n in range(1, order + 1):
        want = special_value(n, x, p, q)
        if want is None:
            if n not in evals:
                continue
            want = evals[n]
        if coeffs[n] * factorial(n) != want:
            return f"oracle entry {n} at ({x},{p},{q}) disagrees"
    return None


# -- command output ------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_cli(argv: list[str], status: int, text: str) -> str | None:
    if status != 0:
        return f"exit status {status}"
    checker = {
        "dist": _check_dist,
        "enumerate": _check_enumerate,
        "avg-nse": _check_avg_nse,
        "perm-stats": _check_perm_stats,
        "verify": _check_verify,
        "table": _check_table,
    }[argv[0]]
    return checker(argv, _flag(argv, "--format"), text)


def _check_dist(argv, fmt, text):
    n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
    want = expected_suv(n, k)
    card = flavor_count(n, k, "llp")
    if fmt == "json":
        data = json.loads(text)
        ok = (
            (data["n"], data["k"]) == (n, k)
            and json_terms(data["poly"], ("u", "v")) == want
            and json_terms(data["enumeration"], ("u", "v")) == want
            and data["cardinality"] == str(card)
            and len(data["checks"]) == 5
            and all(v is True for v in data["checks"].values())
            and data["passed"] is True
        )
    elif fmt == "csv":
        cols = range(max(k, 1))
        grid = [["v\\u"] + [str(i) for i in cols]]
        grid += [
            [str(j)] + [str(want.get((i, j), 0)) for i in cols]
            for j in range(max(n - k, 0) + 1)
        ]
        ok = _rows(text) == grid
    else:
        lines = text.splitlines()
        ok = (
            len(lines) == 4
            and lines[0].startswith("formula      ")
            and lines[1].startswith("enumeration  ")
            and parse_poly_text(lines[0][13:], ("u", "v")) == want
            and parse_poly_text(lines[1][13:], ("u", "v")) == want
            and lines[2] == f"cardinality  {card}"
            and lines[3] == "EQUAL"
        )
    return None if ok else f"dist ({n},{k}) {fmt} output is wrong"


def _rl_minima(seq) -> int:
    count, floor = 0, None
    for value in reversed(seq):
        if floor is None or value < floor:
            count, floor = count + 1, value
    return count


def _partition_ok(blocks, n: int, k: int, flavor: str) -> bool:
    flat = [e for b in blocks for e in b]
    if len(blocks) != k or sorted(flat) != list(range(1, n + 1)):
        return False
    minima = [min(b) for b in blocks]
    sorted_inside = all(list(b) == sorted(b) for b in blocks)
    ordered_blocks = minima == sorted(minima)
    return {
        "ssp": sorted_inside and ordered_blocks,
        "lsp": sorted_inside,
        "slp": ordered_blocks,
        "llp": True,
    }[flavor]


def _check_enumerate(argv, fmt, text):
    n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
    flavor = _flag(argv, "--flavor")
    if fmt == "json":
        rows = [(d["partition"], d["nsb"], d["nse"]) for d in json.loads(text)]
    elif fmt == "csv":
        table = _rows(text)
        if table[0] != ["partition", "nsb", "nse"]:
            return "enumerate csv header is wrong"
        rows = [(r[0], int(r[1]), int(r[2])) for r in table[1:]]
    else:
        rows = []
        for line in text.splitlines():
            word, nsb, nse = line.split(" ")
            rows.append((word, int(nsb), int(nse)))
    if len(rows) != flavor_count(n, k, flavor):
        return f"enumerate {flavor} ({n},{k}) lists {len(rows)} objects"
    if len({r[0] for r in rows}) != len(rows):
        return f"enumerate {flavor} ({n},{k}) repeats an object"
    for word, nsb, nse in rows:
        blocks = [tuple(int(ch) for ch in part) for part in word.split("/")]
        if not _partition_ok(blocks, n, k, flavor):
            return f"{word!r} is not a {flavor} partition of [{n}] into {k} blocks"
        minima = [min(b) for b in blocks]
        if nsb != len(minima) - _rl_minima(minima):
            return f"nsb of {word} is not {nsb}"
        if nse != sum(len(b) - _rl_minima(b) for b in blocks):
            return f"nse of {word} is not {nse}"
    return None


def _check_avg_nse(argv, fmt, text):
    n = int(_flag(argv, "--n"))
    moved = sum(j * c1(n, n - j) * bell(n - j) for j in range(n))
    objects = sum(flavor_count(n, k, "slp") for k in range(1, n + 1))
    value = str(Fraction(moved, objects))
    if fmt == "json":
        ok = json.loads(text) == {"n": n, "value": value, "enumeration": value, "equal": True}
    elif fmt == "csv":
        ok = _rows(text) == [["n", "value", "enumeration", "equal"], [str(n), value, value, "True"]]
    else:
        ok = text.splitlines() == [value, f"enumeration {value}", "EQUAL"]
    return None if ok else f"avg-nse {n} {fmt} output is wrong"


def _check_perm_stats(argv, fmt, text):
    n = int(_flag(argv, "--n"))
    nse = [c1(n, n - j) for j in range(n)]
    ltr = list(cycles_row(n))
    rows = [[j, nse[j], n - j, ltr[n - j]] for j in range(n)]
    if fmt == "json":
        ok = json.loads(text) == {"n": n, "nse": nse, "ltr_max": ltr}
    elif fmt == "csv":
        ok = _rows(text) == [["j", "nse_count", "k", "ltrmax_count"]] + [
            [str(v) for v in row] for row in rows
        ]
    else:
        ok = text.splitlines() == ["j nse_count k ltrmax_count"] + [
            " ".join(str(v) for v in row) for row in rows
        ]
    return None if ok else f"perm-stats {n} {fmt} output is wrong"


def _check_verify(argv, fmt, text):
    identity, nmax = _flag(argv, "--identity"), int(_flag(argv, "--nmax"))
    cells = nmax * (nmax + 1) // 2
    if fmt == "json":
        ok = json.loads(text) == {
            "reports": [
                {"identity": identity, "nmax": nmax, "cells": cells, "failures": 0,
                 "passed": True, "first_counterexample": None}
            ]
        }
    elif fmt == "csv":
        ok = _rows(text) == [
            ["identity", "nmax", "cells", "failures", "passed"],
            [identity, str(nmax), str(cells), "0", "True"],
        ]
    else:
        ok = text.splitlines() == [f"identity {identity}: {cells} cells up to n={nmax}: PASS"]
    return None if ok else f"verify {identity} {fmt} output is wrong"


def _check_table(argv, fmt, text):
    name, nmax = _flag(argv, "--name"), int(_flag(argv, "--nmax"))
    if name == "binomial":
        want = [[comb(n, k) for k in range(n + 1)] for n in range(nmax + 1)]
    else:
        want = [list(stirling2_row(n)) for n in range(nmax + 1)]
    if fmt == "json":
        data = json.loads(text)
        ok = (data["name"], data["nmax"]) == (name, nmax) and [
            [int(v) for v in row] for row in data["rows"]
        ] == want
    elif fmt == "csv":
        ok = [[int(v) for v in row] for row in _rows(text)] == want
    else:
        ok = [[int(v) for v in line.split(" ")] for line in text.splitlines()] == want
    return None if ok else f"table {name} {fmt} output is wrong"

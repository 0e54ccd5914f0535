"""Operation lists for the three workloads, generated from a seed.

A seed changes the order of the operations, the rational evaluation points
and the output formats.  It never changes the set of distinct keys
((n, route), (n, k), (command, size)) nor the height of the rationals, so
every seed asks for the same amount of work.  Each pass of a run replays
the same list in a fresh interpreter.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("expand-cold", "eval-points", "enumerate-cli")

ROUTES = ("substitution", "explicit", "composition")
FORMATS = ("plain", "json", "csv")

# expand-cold: each key is built once per interpreter.  The s_pq sizes are
# disjoint from the touchard_poly sizes, so no operation finds another's
# cache entry and the cost of a key does not depend on the order.
EXPAND_N = (5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 19)
EXPAND_SERIES = (13, 17, 21)
EXPAND_SPQ_N = (22, 26, 30)

# eval-points: a working set of four polynomials.  Four cold builds per pass
# stay well below the ten samples above op_tail_s, so the tail is always a
# warm evaluation of the largest n.
EVAL_N = (10, 14, 18, 22)
EVAL_HEIGHT = 7
EVAL_GENERIC_POINTS = 9
EVAL_SPECIAL_POINTS = 3  # each at p = q = 1 and at p = q = 2

# enumerate-cli: the dist cells avoid the llp-grid cells (n <= 4), which
# share the enumeration cache with them.
DIST_CELLS = (
    [(5, k) for k in range(1, 6)]
    + [(6, k) for k in range(1, 7)]
    + [(7, 1), (7, 2), (7, 7), (8, 1), (8, 8)]
)
ENUM_CELL = (6, 3)
PERM_N = (7, 8, 9)
VERIFY_CELLS = (("llp-grid", 4), ("lsp-slice", 7), ("slp-slice", 7))
AVG_NSE_N = 7
TABLE_NAMES = ("binomial", "stirling2")
TABLE_NMAX = 300


def rationals_of_height(height: int) -> list[Fraction]:
    """Every ±a/b and ±b/a in lowest terms with a = height and b in (height/2, height).

    Numerators and denominators all have about the same size, so evaluating
    at any of them costs about the same.  Values v with 1/(1-v) a positive
    integer are left out: there the oracle's binomial series terminates
    early, and the seed would change the amount of work.
    """
    out = []
    for other in range(height // 2 + 1, height):
        if gcd(other, height) == 1:
            for value in (Fraction(other, height), Fraction(height, other)):
                out += [value, -value]
    return sorted(v for v in out if not _terminating_exponent(v))


def _terminating_exponent(v: Fraction) -> bool:
    alpha = 1 / (1 - v)
    return alpha > 0 and alpha.denominator == 1


def _formats(rng: random.Random, count: int) -> list[str]:
    """A seeded assignment of formats that uses each one about equally."""
    formats = [FORMATS[i % len(FORMATS)] for i in range(count)]
    rng.shuffle(formats)
    return formats


def expand_cold(rng: random.Random) -> list[dict]:
    ops = [{"kind": "poly", "n": n, "route": r} for n in EXPAND_N for r in ROUTES]
    ops += [{"kind": "series", "order": order} for order in EXPAND_SERIES]
    ops += [
        {"kind": "s_pq", "n": n, "k": k}
        for n in EXPAND_SPQ_N
        for k in (n // 4, n // 2, 3 * n // 4)
    ]
    rng.shuffle(ops)
    # last, so the substitution polynomials it reuses (n <= 12) are always
    # already built and its cost does not depend on the seed
    ops.append({"kind": "verify", "identity": "series-vs-explicit"})
    return ops


def eval_points(rng: random.Random) -> list[dict]:
    pool = rationals_of_height(EVAL_HEIGHT)
    points = []
    for _ in range(EVAL_GENERIC_POINTS):
        points.append(tuple(rng.choice(pool) for _ in range(3)))
    for special in (Fraction(1), Fraction(2)):
        for _ in range(EVAL_SPECIAL_POINTS):
            points.append((rng.choice(pool), special, special))
    ops = []
    for group, (x, p, q) in enumerate(points):
        point = {"x": str(x), "p": str(p), "q": str(q), "group": group}
        ops += [dict(point, kind="eval", n=n) for n in EVAL_N]
        if p != 1:
            ops.append(dict(point, kind="oracle", order=max(EVAL_N)))
    rng.shuffle(ops)
    return ops


def enumerate_cli(rng: random.Random) -> list[dict]:
    argvs = []
    for (n, k), fmt in zip(DIST_CELLS, _formats(rng, len(DIST_CELLS))):
        argvs.append(["dist", "--n", str(n), "--k", str(k), "--oracle", "--format", fmt])
    n, k = ENUM_CELL
    for flavor in ("ssp", "lsp", "slp", "llp"):
        for fmt in FORMATS:
            argvs.append(
                ["enumerate", "--n", str(n), "--k", str(k), "--flavor", flavor,
                 "--stats", "--format", fmt]
            )
    small = _formats(rng, 1 + len(PERM_N) + len(VERIFY_CELLS))
    argvs.append(["avg-nse", "--n", str(AVG_NSE_N), "--check", "--format", small.pop()])
    for n in PERM_N:
        argvs.append(["perm-stats", "--n", str(n), "--format", small.pop()])
    for identity, nmax in VERIFY_CELLS:
        argvs.append(
            ["verify", "--identity", identity, "--nmax", str(nmax), "--format", small.pop()]
        )
    for name in TABLE_NAMES:
        for fmt in FORMATS:
            argvs.append(["table", "--name", name, "--nmax", str(TABLE_NMAX), "--format", fmt])
    ops = [{"kind": "cli", "argv": argv} for argv in argvs]
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "expand-cold": expand_cold,
    "eval-points": eval_points,
    "enumerate-cli": enumerate_cli,
}


def operations(workload: str, seed: int) -> list[dict]:
    """The operation list of one pass: same seed, same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warm_share(ops: list[dict]) -> float:
    """Share of evaluations whose polynomial an earlier operation built."""
    seen: set[int] = set()
    evals = warm = 0
    for op in ops:
        if op["kind"] != "eval":
            continue
        evals += 1
        warm += op["n"] in seen
        seen.add(op["n"])
    return warm / evals if evals else 0.0

"""Sparse multivariate polynomials over the variables x, p, q, u, v.

Coefficients are plain Python integers, so everything stays exact at any
size.  Polynomials are value objects: construct, combine, compare, but never
mutate one in place.  Every term is keyed by its full exponent vector with
one slot per name in VAR_ORDER = (x, p, q, u, v), and zero coefficients are
never stored, so structural equality coincides with mathematical equality.
`variables` is derived: the names that some term actually uses.

Every polynomial is built one way: _wrap adopts a fresh term map whose
keys are already canonical and checks nothing.  From outside the package,
polynomials come from the public builders MultiPoly.const and
MultiPoly.var and arithmetic on them; MultiPoly() itself is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Mapping

VAR_ORDER = ("x", "p", "q", "u", "v")
_SLOT = {name: slot for slot, name in enumerate(VAR_ORDER)}
_ZERO_KEY = (0,) * len(VAR_ORDER)
# slots in the order a monomial is rendered: x last, so coefficients in the
# deformation parameters read naturally, e.g. q*x + p*x^2
_RENDER = (1, 2, 3, 4, 0)


def _slot(name: str) -> int:
    if name not in _SLOT:
        raise ValueError(
            f"unknown variable {name!r}: choose from {', '.join(VAR_ORDER)}"
        )
    return _SLOT[name]


def _coerce(value) -> "MultiPoly":
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return MultiPoly.const(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def _exact(value, name: str, symbolic: bool = False):
    """value if an int (not a bool), a Fraction or, when symbolic, a MultiPoly:
    Fraction() would take a float at its binary value and a bool as 0 or 1."""
    kinds = (int, Fraction, MultiPoly) if symbolic else (int, Fraction)
    if isinstance(value, bool) or not isinstance(value, kinds):
        allowed = "an int, a Fraction or a MultiPoly" if symbolic else "an int or a Fraction"
        raise ValueError(f"{name} must be {allowed}, got {type(value).__name__}")
    return value


def _wrap(terms: dict[tuple[int, ...], int]) -> "MultiPoly":
    """The polynomial of a term map with 5-slot keys, without zero
    coefficients; nothing else is checked.

    The map is adopted, not copied, when no coefficient is 0 (one scan
    decides), so every caller passes a fresh dict and never touches it
    afterwards."""
    if 0 in terms.values():
        terms = {key: c for key, c in terms.items() if c}
    poly = object.__new__(MultiPoly)
    poly.terms = terms
    return poly


def _add_products(out: dict, ta: Mapping, tb: Mapping) -> None:
    """Accumulate every product of a term of ta and a term of tb into out."""
    get = out.get
    for (a0, a1, a2, a3, a4), ca in ta.items():
        for (b0, b1, b2, b3, b4), cb in tb.items():
            key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
            out[key] = get(key, 0) + ca * cb


class MultiPoly:
    """A polynomial stored as a map from exponent vectors to integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a MultiPoly with MultiPoly.const, MultiPoly.var and arithmetic")

    @classmethod
    def const(cls, value: int) -> "MultiPoly":
        """The constant polynomial `value`."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"coefficients must be int, got {type(value).__name__}")
        return _wrap({_ZERO_KEY: value})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        """The monomial name**power with coefficient 1."""
        slot = _slot(name)
        if not isinstance(power, int) or isinstance(power, bool) or power < 0:
            raise ValueError(f"exponents must be nonnegative integers: {(power,)}")
        key = list(_ZERO_KEY)
        key[slot] = power
        return _wrap({tuple(key): 1})

    def _tops(self) -> list[int]:
        """Each slot's top exponent, 0 where no term uses it: one scan, unrolled."""
        t0 = t1 = t2 = t3 = t4 = 0
        for e0, e1, e2, e3, e4 in self.terms:
            if e0 > t0:
                t0 = e0
            if e1 > t1:
                t1 = e1
            if e2 > t2:
                t2 = e2
            if e3 > t3:
                t3 = e3
            if e4 > t4:
                t4 = e4
        return [t0, t1, t2, t3, t4]

    @property
    def variables(self) -> tuple[str, ...]:
        """The variables that some term uses, in VAR_ORDER."""
        return tuple(name for name, d in zip(VAR_ORDER, self._tops()) if d)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        out: dict[tuple[int, ...], int] = {}
        _add_products(out, self.terms, other.terms)
        return _wrap(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ------------------------------------------------------------

    def monomial_coefficient(self, exponents: Mapping[str, int]) -> int:
        """Integer coefficient of one monomial; unnamed variables mean exponent 0."""
        key = list(_ZERO_KEY)
        for name, e in exponents.items():
            key[_slot(name)] = e
        return self.terms.get(tuple(key), 0)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Exact value at a point of ints and Fractions, one for each variable present."""
        top = self._tops()
        point = []
        for name, d in zip(VAR_ORDER, top):
            if d and name not in assignment:
                raise ValueError(f"no value given for variable {name!r}")
            point.append(_exact(assignment[name], name) if d else 1)
        # integers over one common denominator (an int is a/1): with value a/b
        # and top degree d in a slot, exponent e contributes a^e * b^(d-e) over b^d
        scaled = [
            [value.numerator**e * value.denominator ** (d - e) for e in range(d + 1)]
            for value, d in zip(point, top)
        ]
        total = 0
        for key, coeff in self.terms.items():
            for powers, e in zip(scaled, key):
                coeff *= powers[e]
            total += coeff
        return Fraction(total, prod(value.denominator**d for value, d in zip(point, top)))

    def substitute(self, name: str, replacement) -> "MultiPoly":
        """Replace every occurrence of `name` by a polynomial (or integer).

        By Horner's rule in `name`: with C_e the polynomial in the other
        variables that multiplies name^e, the result is
        (...(C_d * r + C_(d-1)) * r + ...) * r + C_0 for the replacement r,
        one product by r per degree and no power of r built.
        """
        replacement = _coerce(replacement).terms
        slot = _slot(name)
        rows: dict[int, dict[tuple[int, ...], int]] = {}
        for key, coeff in self.terms.items():
            rows.setdefault(key[slot], {})[key[:slot] + (0,) + key[slot + 1 :]] = coeff
        out: dict[tuple[int, ...], int] = {}
        for e in range(max(rows, default=0), -1, -1):
            step = rows.get(e, {})
            _add_products(step, replacement, out)
            out = step
        return _wrap(out)

    # -- canonical presentation ----------------------------------------------

    def _graded_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # exponent vectors descending, then a stable sort by total degree:
        # the keys are unique, so no coefficient is ever compared
        items = sorted(self.terms.items(), reverse=True)
        items.sort(key=lambda kv: sum(kv[0]))
        return items

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lexicographic order (degree first, then x before p
        before q...), with exponents over `variables` only."""
        slots = [_SLOT[name] for name in self.variables]
        return [
            (tuple(key[slot] for slot in slots), c) for key, c in self._graded_terms()
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key, coeff in self._graded_terms():
            factors = []
            for slot in _RENDER:
                e = key[slot]
                if e == 1:
                    factors.append(VAR_ORDER[slot])
                elif e > 1:
                    factors.append(f"{VAR_ORDER[slot]}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self})"

    # -- JSON wire format -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Schema: list of {"exponents": {var: exp, ...}, "coeff": decimal string}.

        Coefficients are decimal strings because they routinely exceed 64 bits.
        """
        return [
            {
                "exponents": {n: e for n, e in zip(VAR_ORDER, key) if e},
                "coeff": str(coeff),
            }
            for key, coeff in self._graded_terms()
        ]

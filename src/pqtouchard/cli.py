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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, dropwhile, repeat, starmap
from json.encoder import encode_basestring_ascii
from math import lgamma, log, log10

from . import partitions, permstats, tables, touchard
from .poly import MultiPoly
from .tables import _BINOMIAL, _STIRLING1, _STIRLING2, _check_n, _rows, bell, factorial

# each name's rows 0..nmax, read whole from its triangle or, signed, entry by entry
_TRIANGLES = {
    "binomial": partial(_rows, _BINOMIAL),
    "stirling2": partial(_rows, _STIRLING2),
    "stirling1": partial(_rows, _STIRLING1),
    "stirling1-signed": lambda nmax: [
        [tables.stirling1_signed(n, k) for k in range(n + 1)] for n in range(nmax + 1)
    ],
}
_SEQUENCES = {"bell": bell, "factorial": factorial}


# Fraction multiplies a decimal exponent out, in time that grows faster than
# the exponent, so one past this is refused
EXPONENT_LIMIT = 100_000
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it


def _parse_fraction(text: str) -> Fraction:
    text = str(text)
    exponent = _EXPONENT.search(text)
    # decided by the digit count first, so no long digit string is converted
    digits = exponent[1].replace("_", "") if exponent else ""
    digits = "".join(dropwhile(lambda d: int(d) == 0, digits))  # zeros of any script
    huge = len(digits) > len(str(EXPONENT_LIMIT)) or int(digits or 0) > EXPONENT_LIMIT
    try:
        # past the limit, read with exponent 0, so a malformed literal says so
        value = Fraction(text[: exponent.start(1)] + "0" if huge else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact rational") from exc
    if huge:
        raise ValueError(f"{text!r} has an exponent over {EXPONENT_LIMIT} in magnitude")
    return value


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
    asked for, so the others are never built; csv rows, plain lines and any
    json array (given as an iterator of its items) may be lazy.  The json
    payload holds str, int, bool, None, dicts, lists, tuples and iterators;
    the package's own writer, _json, writes it byte-identical to
    json.JSONEncoder(indent=2), without the encoder's pure-Python path.
    """

    payload: Callable[[], object]
    rows: Callable[[], Iterable[Sequence]]
    lines: Callable[[], Iterable]
    status: int = 0


# the json text of each scalar type, as JSONEncoder writes it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# the characters encode_basestring_ascii writes as they are: space to tilde,
# less the quote and the backslash
_UNESCAPED = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def _scalar(value) -> str:
    write = _SCALARS.get(type(value))
    return write(value) if write else json.dumps(value)


def _key(key) -> str:
    # as JSONEncoder writes a key: text as it is, any other scalar as its text
    return encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))


def _text(value, newline: str, nested: bool = True) -> str | None:
    """The whole json text of a scalar, of a list, tuple or dict of
    scalars, or (nested) of a dict of those, such as a polynomial term, in
    one join; None for anything else.  newline starts the line that the
    value's closing bracket goes on."""
    if not isinstance(value, (dict, list, tuple)):
        return None if isinstance(value, Iterator) else _scalar(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            write = _SCALARS.get(type(item))
            text = write(item) if write else _text(item, inner, False) if nested else None
            if text is None:
                return None
            parts.append(f"{_key(key)}: {text}")
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    kinds = set(map(type, value))
    if not _SCALARS.keys() >= kinds:
        return None
    if kinds == {str}:
        # text with no character to escape, such as a row of digit strings,
        # is quoted with one join; the raw items are checked, not the join
        raw = "".join(value)
        if raw.isascii() and not raw.encode().translate(None, _UNESCAPED):
            sep = '",' + inner + '"'
            return "[" + inner + '"' + sep.join(value) + '"' + newline + "]"
    write = _SCALARS[kinds.pop()] if len(kinds) == 1 else _scalar
    return "[" + inner + ("," + inner).join(map(write, value)) + newline + "]"


def _json(value, newline: str = "\n") -> Iterator[str]:
    """value's text as JSONEncoder(indent=2) writes it, with an iterator
    written as an array, chunk by chunk: each item _text writes whole (a
    row, a record) is one chunk, and nothing larger is ever joined."""
    text = _text(value, newline)
    if text is not None:
        yield text
        return
    inner = newline + "  "
    if isinstance(value, dict):
        heads = (f"{inner}{_key(key)}: " for key in value)
        items, brackets = value.values(), "{}"
    else:
        heads, items, brackets = repeat(inner), value, "[]"
    sep = brackets[0]
    for head, item in zip(heads, items):
        text = _text(item, inner)
        if text is None:
            yield sep + head
            yield from _json(item, inner)
        else:
            yield sep + head + text
        sep = ","
    # only an iterator can be empty here: _text writes an empty container
    yield newline + brackets[1] if sep == "," else brackets


def _emit(output: _Output, fmt: str, handle) -> None:
    """Write output in the format asked for.  json comes from _json, the
    package's own writer, whose text is byte-identical to
    json.JSONEncoder(indent=2)'s (which runs in pure Python when it
    indents); it streams, so no document is held whole."""
    if fmt == "json":
        handle.writelines(_json(output.payload()))
        handle.write("\n")
    elif fmt == "csv":
        # QUOTE_MINIMAL never quotes a str(int), which holds only digits and
        # "-", so a row of ints alone is joined directly: csv.writer's quoting
        # scan of every character costs about three times the row's str()
        writer = csv.writer(handle, lineterminator="\n")
        for row in output.rows():
            if {int}.issuperset(map(type, row)):
                handle.write(",".join(map(str, row)) + "\n")
            else:
                writer.writerow(row)
    else:
        # the bytes print would write: str of each line, then a newline
        handle.writelines(f"{line}\n" for line in output.lines())


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


_FORCE = "pass --force to run it anyway"  # the way past each budget below

# Digits `table` may print without --force.  The bound below stays within it
# up to nmax = 359 for the Stirling triangles and bell, 690 for binomial, 345
# for q-product and 3,973 for factorial, and at 300 for every name.  At those
# edges every name ran in at most 2.5 s and 93 MB peak RSS in each format
# (the largest, q-product --format json, wrote 35 MB in 1.2 s; factorial,
# whose values pass 4,300 digits from nmax = 1,559, took 2.5 s at 27-49 MB),
# measured as cold processes with --out on a 2-vCPU VM.  stirling2 at
# nmax = 1500, which wrote 1.48 GB in 55 s at 715 MB, is refused.
TABLE_DIGIT_BUDGET = 50_000_000


def _table_digits(name: str, nmax: int) -> int:
    """An upper bound on the digits of rows 0..nmax, from a bound on the
    largest entry of row nmax, so no entry is computed: C(n,k) <= 2^n;
    c(n,k) <= n! (row n sums to n!); S(n,k) <= B(n) <= n! (a set partition
    read as a permutation of cycles); the coefficients of Q_n are at most
    (2n-1)!! <= 2^n n! in size.  factorial prints one number per row; bell
    prints one too, but grows and holds the Stirling-2 triangle, so it
    counts that."""
    log_factorial, log_power = lgamma(nmax + 1) / log(10), nmax * log10(2)
    log_top = {"binomial": log_power, "q-product": log_power + log_factorial}.get(
        name, log_factorial
    )
    numbers = nmax + 1 if name == "factorial" else (nmax + 1) * (nmax + 2) // 2
    return numbers * (int(log_top) + 1)


def _cmd_table(args) -> _Output:
    _check_n(args.nmax, "--nmax")
    name, nmax = args.name, args.nmax
    try:
        digits = _table_digits(name, nmax)
    except OverflowError:
        raise ValueError(f"--nmax {nmax} is too large to print") from None
    if digits > TABLE_DIGIT_BUDGET and not args.force:
        what = f"table {name} for nmax={nmax} prints up to"
        raise partitions._over_budget(what, digits, "digits", TABLE_DIGIT_BUDGET, _FORCE)
    if name in _TRIANGLES:
        rows = _TRIANGLES[name](nmax)
        return _Output(
            lambda: {
                "name": name,
                "nmax": nmax,
                "rows": (list(map(str, row)) for row in rows),
            },
            lambda: rows,
            lambda: (" ".join(map(str, row)) for row in rows),
        )
    if name in _SEQUENCES:
        fn = _SEQUENCES[name]
        values = [fn(n) for n in range(nmax + 1)]
        return _Output(
            lambda: {"name": name, "nmax": nmax, "values": map(str, values)},
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
            "polys": (p.to_json_obj() for p in polys),
        },
        lambda: chain([["n", "poly"]], enumerate(polys)),
        lambda: polys,
    )


# T_n has at most n(n+1)(n+2)/6 terms, one per x^k p^m q^l with m < k and
# l <= n - k.  The largest n within this budget, 95, is built and written in
# 0.85-1.25 s and 112-114 MB on each route (cold process, --out, 2-vCPU VM).
EXPAND_TERM_BUDGET = 150_000


def _cmd_expand(args) -> _Output:
    _check_n(args.n)
    terms = args.n * (args.n + 1) * (args.n + 2) // 6
    if terms > EXPAND_TERM_BUDGET and not args.force:
        what = f"expand for n={args.n} builds up to"
        raise partitions._over_budget(what, terms, "terms", EXPAND_TERM_BUDGET, _FORCE)
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
    x, p, q = map(_parse_fraction, (args.x, args.p, args.q))
    if args.oracle and (p == 1 or q == 1):
        raise ValueError(
            "--oracle needs p != 1 and q != 1 (its series has exponents "
            "1/(1-p) and 1/(1-q)); run eval without --oracle at this point"
        )
    value = touchard._composed_value(args.n, x, p, q)
    check = None
    if args.oracle:
        coeffs = touchard.taylor_oracle(x, p, q, args.n)
        check = ("oracle", coeffs[args.n] * factorial(args.n))
    return _value_output(args.n, {"x": x, "p": p, "q": q}, value, check)


def _cmd_enumerate(args) -> _Output:
    flavor = partitions._check_size(args.n, args.k, args.flavor, args.force)
    header = ["partition", "nsb", "nse"] if args.stats else ["partition"]
    # records come one block order at a time, and no object is built: the
    # 7,200 objects of llp(6,3) take 540 nsb scans, one per block order, and
    # their 21,600 block words are read from 516, the words of their 56
    # distinct blocks, each rendered once
    # the three formats share the one stream; the emitter drains only one
    records = partial(partitions._records, args.n, args.k, flavor, args.stats)
    return _Output(
        lambda: map(dict, map(zip, repeat(header), records())),
        lambda: chain([header], records()),
        # one format call writes a line's fields, each as its str()
        lambda: starmap(" ".join(["{}"] * len(header)).format, records()),
    )


# Digits `dist` may hold without --force.  The bound below stays within it
# for every cell up to n = 513, where the largest, k = 256, ran in 2.7 s at
# 312 MB peak RSS (3.8 s, 217 MB as json; cold process, --out, 2-vCPU VM).
# n = 3000, k = 1500 ran out of a 1 GB address space growing the triangles.
DIST_DIGIT_BUDGET = 400_000_000


def _dist_digits(n: int, k: int) -> int:
    """An upper bound on the digits s_uv(n, k) holds (n >= 0), no entry
    computed: 0 outside 0 <= k <= n, where s_uv reads no table; else both
    Stirling triangles to row n as _table_digits bounds them, and (n-k+1)(k+2)
    terms of s_uv and A, each at most llp(n,k) = n!*C(n-1,k-1) <= n!*2^n."""
    if not 0 <= k <= n:
        return 0
    top = int(lgamma(n + 1) / log(10) + n * log10(2)) + 1
    return 2 * _table_digits("stirling1", n) + (n - k + 1) * (k + 2) * top


def _cmd_dist(args) -> _Output:
    _check_n(args.n)
    try:
        digits = _dist_digits(args.n, args.k)
    except OverflowError:
        raise ValueError("--n or --k is too large to compute") from None
    if digits > DIST_DIGIT_BUDGET and not args.force:
        what = f"dist for n={args.n}, k={args.k} holds up to"
        raise partitions._over_budget(what, digits, "digits", DIST_DIGIT_BUDGET, _FORCE)
    report = touchard.stat_report(args.n, args.k, force=args.force) if args.oracle else None
    formula = report.formula if report else touchard.s_uv(args.n, args.k)
    failed = ", ".join(name for name, ok in report.checks if not ok) if report else ""
    if failed:
        print(f"verification failed: {failed}", file=sys.stderr)

    # the oracle's fields follow the closed form's; csv is its grid alone
    def payload():
        fields = {"n": args.n, "k": args.k, "poly": formula.to_json_obj()}
        if report:
            fields.update(
                enumeration=report.poly.to_json_obj(),
                cardinality=str(report.cardinality),
                checks=dict(report.checks),
                passed=report.passed,
            )
        return fields

    def rows():
        cols = range(max(args.k, 1))
        yield ["v\\u", *cols]
        for j in range(max(args.n - args.k, 0) + 1):
            yield [j, *(formula.monomial_coefficient({"u": i, "v": j}) for i in cols)]

    def lines():
        if not report:
            return [formula]
        return [
            f"formula      {formula}",
            f"enumeration  {report.poly}",
            f"cardinality  {report.cardinality}",
            f"MISMATCH ({failed})" if failed else "EQUAL",
        ]

    return _Output(payload, rows, lines, 1 if failed else 0)


def _cmd_verify(args) -> _Output:
    names = touchard.IDENTITY_NAMES if args.identity == "all" else (args.identity,)
    reports = [touchard.verify_identity(name, args.nmax, args.force) for name in names]
    # the csv columns, which are also the json fields before the counterexample
    header = ["identity", "nmax", "cells", "failures", "passed"]
    rows = [[r.identity, r.n_max, len(r.cells), r.failures, r.passed] for r in reports]
    return _Output(
        lambda: {
            "reports": [
                {**dict(zip(header, row)), "first_counterexample": r.first_counterexample}
                for r, row in zip(reports, rows)
            ]
        },
        lambda: [header, *rows],
        lambda: [r.summary() for r in reports],
        0 if all(r.passed for r in reports) else 1,
    )


def _cmd_avg_nse(args) -> _Output:
    ks = range(1, args.n + 1)
    if args.check:
        # every cell is checked, up to the first refusal, before any work
        for k in ks:
            partitions._check_size(args.n, k, "slp", False, hint="use a smaller n")
    value = touchard.avg_nse(args.n)
    check = None
    if args.check:
        # nsb is 0 on slp
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


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


_N = _arg("--n", type=int, required=True)
_K = _arg("--k", type=int, required=True)

# each command's help, handler, whether it takes --force, and its own
# arguments, which follow the shared --format, --out and --force
_COMMANDS = {
    "table": ("print a number table", _cmd_table, True, (
        _arg("--name", required=True, choices=(*_TRIANGLES, *_SEQUENCES, "q-product")),
        _arg("--nmax", type=int, required=True, help="last row to print"),
        _arg("--var", choices=("p", "q"), default="q",
             help="variable of the q-product polynomials"),
    )),
    "expand": ("print T_n(x;p,q)", _cmd_expand, True, (
        _N,
        _arg("--route", choices=touchard.ROUTES, default="substitution",
             help="computation route (all agree)"),
        _arg("--at", metavar="ASSIGN",
             help="evaluate at e.g. x=1/2,p=2,q=3 instead of printing the polynomial"),
    )),
    "eval": ("evaluate T_n at a rational point", _cmd_eval, False, (
        _N,
        _arg("--x", required=True),
        _arg("--p", required=True),
        _arg("--q", required=True),
        _arg("--oracle", action="store_true",
             help="cross-check against the series oracle (needs p != 1 and q != 1)"),
    )),
    "enumerate": ("list all partitions of one flavor", _cmd_enumerate, True, (
        _N,
        _K,
        _arg("--flavor", required=True, choices=partitions.FLAVORS),
        _arg("--stats", action="store_true", help="append nsb and nse columns"),
    )),
    "dist": ("joint nsb/nse distribution polynomial", _cmd_dist, True, (
        _N,
        _K,
        _arg("--oracle", action="store_true",
             help="also enumerate and compare against the closed form"),
    )),
    "verify": ("check a named identity cell by cell", _cmd_verify, True, (
        _arg("--identity", required=True, choices=(*touchard.IDENTITY_NAMES, "all")),
        _arg("--nmax", type=int,
             help="check cells up to this n (default: per-identity budget)"),
    )),
    "avg-nse": ("average nse over all sets-of-lists of [n]", _cmd_avg_nse, False, (
        _N,
        _arg("--check", action="store_true", help="cross-check the formula by full enumeration"),
    )),
    "perm-stats": (
        "nse and left-to-right-maxima distributions over S_n", _cmd_perm_stats, False, (_N,)
    ),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every command is listed, for the top-level
    usage and help; given argv, only the commands named in it get their
    arguments and -h, since argparse parses with no other command."""
    parser = argparse.ArgumentParser(
        prog="pqtouchard",
        description="Exact deformed Touchard polynomials and partition statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, force, arguments) in _COMMANDS.items():
        named = argv is None or name in argv
        p = sub.add_parser(name, help=help_text, add_help=named)
        if not named:
            continue
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
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    # argparse reads a separate value like -7/5 as an option (only -1-like
    # numbers pass), so a dash-led value of --x, --p or --q joins its option
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--x", "--p", "--q") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) itself
        return int(exc.code or 0)
    # the budgets bound every printed number, so the str<->int digit limit
    # (CPython 3.10.7 and later) is lifted while the command runs
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
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
    finally:
        set_limit(limit)
    return output.status


if __name__ == "__main__":
    sys.exit(main())

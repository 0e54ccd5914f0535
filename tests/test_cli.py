"""End-to-end runs of the command line through main(argv)."""

import argparse
import contextlib
import csv
import decimal
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from math import factorial as math_factorial
from math import prod
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqtouchard import (
    MultiPoly,
    VerificationReport,
    exp_q,
    factorial,
    s_uv,
    touchard_eval,
    touchard_poly,
)
from pqtouchard import cli, partitions, tables, touchard
from pqtouchard.cli import main
from pqtouchard.poly import _wrap
from pqtouchard.tables import binomial, stirling1_signed, stirling1_unsigned, stirling2

# each triangle name of `table`, by its public entry function
ENTRIES = {
    "binomial": binomial,
    "stirling2": stirling2,
    "stirling1": stirling1_unsigned,
    "stirling1-signed": stirling1_signed,
}


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def fail_at_order(monkeypatch, count):
    """Make enumeration raise at the count-th block order, once the records
    of the orders before it are out."""
    arrangements = partitions._arrangements

    def failing(*cell):
        for seen, order in enumerate(arrangements(*cell), 1):
            if seen == count:
                raise ValueError("late failure")
            yield order

    monkeypatch.setattr(partitions, "_arrangements", failing)


class TestExpand:
    def test_plain(self, capsys):
        status, out, err = run(capsys, "expand", "--n", "2")
        assert status == 0
        assert out == "q*x + p*x^2\n"
        assert err == ""

    def test_at_point(self, capsys):
        status, out, _ = run(capsys, "expand", "--n", "3", "--at", "x=1,p=1,q=1")
        assert status == 0
        assert out == "5\n"

    def test_json_round_trip(self, capsys):
        status, out, _ = run(capsys, "expand", "--n", "4", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["poly"] == touchard_poly(4).to_json_obj()

    def test_csv(self, capsys):
        status, out, _ = run(capsys, "expand", "--n", "2", "--format", "csv")
        assert status == 0
        assert out == "x,p,q,coeff\n1,0,1,1\n2,1,0,1\n"

    def test_routes(self, capsys):
        for route in touchard.ROUTES:
            status, out, _ = run(capsys, "expand", "--n", "3", "--route", route)
            assert status == 0
            assert out == "-q*x + 2*q^2*x - p*x^3 + 3*p*q*x^2 + 2*p^2*x^3\n"

    def test_bad_assignment(self, capsys):
        # u is a variable of s_uv, not of T_n, so it is refused like y
        for at in ("y=1", "x=1,p=1,q=1,u=7"):
            status, out, err = run(capsys, "expand", "--n", "2", "--at", at)
            assert status == 2
            assert out == ""
            assert err.startswith("error:")

    def test_repeated_variable_is_refused(self, capsys):
        argv = ("expand", "--n", "3", "--at", "x=1,p=1,q=1,x=2")
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and "x is given twice" in err

    def test_huge_n_is_refused_at_once(self):
        # a subprocess, as a user runs it: the term bound refuses before any
        # table or polynomial is built
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pqtouchard.cli", "expand", "--n", "100000"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 10
        assert (result.returncode, result.stdout) == (2, "")
        assert "expand for n=100000 builds up to 166671666700000 terms" in result.stderr
        assert f"budget of {cli.EXPAND_TERM_BUDGET}; pass --force" in result.stderr

    def test_budget_edge(self, capsys, monkeypatch):
        # n(n+1)(n+2)/6 is 35 at n = 5 and 56 at n = 6
        monkeypatch.setattr(cli, "EXPAND_TERM_BUDGET", 35)
        assert run(capsys, "expand", "--n", "5")[0] == 0
        for extra in ((), ("--at", "x=1,p=1,q=1")):
            status, out, err = run(capsys, "expand", "--n", "6", *extra)
            assert (status, out) == (2, "")
            assert "expand for n=6 builds up to 56 terms, over the budget of 35" in err

    def test_force_lifts_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EXPAND_TERM_BUDGET", 1)
        status, _, err = run(capsys, "expand", "--n", "3")
        assert status == 2 and "--force" in err
        for extra, expected in (
            ((), "-q*x + 2*q^2*x - p*x^3 + 3*p*q*x^2 + 2*p^2*x^3\n"),
            (("--at", "x=1,p=1,q=1"), "5\n"),
        ):
            assert run(capsys, "expand", "--n", "3", "--force", *extra)[:2] == (0, expected)


class TestEval:
    def test_oracle_agreement(self, capsys):
        status, out, _ = run(
            capsys, "eval", "--n", "3", "--x", "1", "--p", "2", "--q", "2", "--oracle"
        )
        assert status == 0
        assert out == "24\noracle 24\nEQUAL\n"

    def test_fraction_arguments(self, capsys):
        status, out, _ = run(
            capsys, "eval", "--n", "2", "--x", "1/2", "--p", "3", "--q", "1/5"
        )
        assert status == 0
        assert out == "17/20\n"

    @pytest.mark.parametrize("value", ["-7/5", "-1", "-.5"])
    def test_negative_value_as_separate_argument(self, capsys, value):
        base = ["eval", "--n", "5", "--x", "4/7", "--q", "5/7", "--oracle"]
        joined = run(capsys, *base, f"--p={value}")
        assert joined[0] == 0 and joined[2] == ""
        assert run(capsys, *base, "--p", value) == joined
        # the value may be the x or q of the point as well
        assert run(capsys, "eval", "--n", "3", "--x", value, "--p", "2", "--q", value)[0] == 0

    def test_missing_value_is_still_a_usage_error(self, capsys):
        status, out, err = run(capsys, "eval", "--n", "5", "--x", "1", "--p", "--q", "2")
        assert status == 2 and out == ""
        assert "argument --p: expected one argument" in err

    def test_json(self, capsys):
        status, out, _ = run(
            capsys, "eval", "--n", "4", "--x", "1", "--p", "1", "--q", "1",
            "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["value"] == "15"

    def test_oracle_refuses_classical_point(self, capsys):
        status, _, err = run(
            capsys, "eval", "--n", "2", "--x", "1", "--p", "1", "--q", "2", "--oracle"
        )
        assert status == 2
        assert "error:" in err and "p != 1" in err

    @pytest.mark.parametrize("p,q", [("1", "2"), ("3", "1")])
    def test_oracle_refusal_says_to_drop_the_flag(self, capsys, p, q):
        status, out, err = run(
            capsys, "eval", "--n", "2", "--x", "1", "--p", p, "--q", q, "--oracle"
        )
        assert (status, out) == (2, "")
        assert "--oracle needs p != 1 and q != 1" in err
        assert "without --oracle" in err

    def test_exponent_limit(self):
        assert cli._parse_fraction("1e100000") == 10**100000
        assert cli._parse_fraction("-2.5E-0_000_100_000") == Fraction(-25, 10**100001)
        for text in ("1e100001", "1e-100_001", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="has an exponent over 100000"):
                cli._parse_fraction(text)
        # a malformed literal is named as such, whatever its exponent
        with pytest.raises(ValueError, match="cannot parse '1/2e9999999'"):
            cli._parse_fraction("1/2e9999999")

    def test_bad_fraction(self, capsys):
        status, _, err = run(capsys, "eval", "--n", "2", "--x", "abc", "--p", "1", "--q", "1")
        assert status == 2
        assert "cannot parse" in err


class TestEnumerate:
    def test_plain(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "1", "--flavor", "llp")
        assert status == 0
        assert out == "12\n21\n"

    def test_stats_columns(self, capsys):
        status, out, _ = run(
            capsys, "enumerate", "--n", "2", "--k", "1", "--flavor", "llp", "--stats"
        )
        assert status == 0
        assert out == "12 0 0\n21 0 1\n"

    def test_json(self, capsys):
        status, out, _ = run(
            capsys, "enumerate", "--n", "3", "--k", "3", "--flavor", "ssp",
            "--format", "json",
        )
        assert status == 0
        assert json.loads(out) == [{"partition": "1/2/3"}]

    def test_budget_and_force(self, capsys, monkeypatch):
        # llp(4,2) lists 72 objects of 4 elements
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 200)
        status, _, err = run(capsys, "enumerate", "--n", "4", "--k", "2", "--flavor", "llp")
        assert status == 2
        assert "--force" in err
        status, out, _ = run(
            capsys, "enumerate", "--n", "4", "--k", "2", "--flavor", "llp", "--force"
        )
        assert status == 0
        assert len(out.splitlines()) == 72


    def test_one_object_at_large_n(self):
        # a subprocess, as a user runs it; the budget check decides this cell
        # from its bounds, without growing the Stirling table to row 1200
        result = subprocess.run(
            [sys.executable, "-m", "pqtouchard.cli", "enumerate", "--n", "1200",
             "--k", "1", "--flavor", "ssp"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [",".join(map(str, range(1, 1201)))]

    def test_huge_cells_are_refused_at_once(self, capsys):
        for flavor in partitions.FLAVORS:
            start = time.perf_counter()
            status, out, err = run(
                capsys, "enumerate", "--n", "3000", "--k", "1500", "--flavor", flavor
            )
            assert time.perf_counter() - start < 2
            assert (status, out) == (2, "")
            assert f"{flavor} enumeration for n=3000, k=1500 lists at least" in err
            assert "budget of 12000000" in err
        status, _, err = run(
            capsys, "enumerate", "--n", "2000", "--k", "1000", "--flavor", "llp"
        )
        assert status == 2 and "budget of 12000000" in err

    def test_json_stream_bytes(self, capsys):
        cases = (
            (
                ("--n", "2", "--k", "1", "--flavor", "llp", "--stats"),
                '[\n  {\n    "partition": "12",\n    "nsb": 0,\n    "nse": 0\n  },'
                '\n  {\n    "partition": "21",\n    "nsb": 0,\n    "nse": 1\n  }\n]\n',
            ),
            (
                ("--n", "0", "--k", "0", "--flavor", "ssp"),
                '[\n  {\n    "partition": ""\n  }\n]\n',
            ),
            (("--n", "3", "--k", "5", "--flavor", "slp"), "[]\n"),
        )
        for argv, expected in cases:
            status, out, _ = run(capsys, "enumerate", *argv, "--format", "json")
            assert (status, out) == (0, expected)
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_partition_text_past_nine_is_quoted(self, capsys):
        argv = ("enumerate", "--n", "10", "--k", "9", "--flavor", "ssp", "--stats")
        status, out, _ = run(capsys, *argv, "--format", "csv")
        lines = out.splitlines()
        assert status == 0 and len(lines) == 46
        assert lines[:2] == ["partition,nsb,nse", '"1,2/3/4/5/6/7/8/9/10",0,0']
        # the block words carry the comma separator in every format
        status, out, _ = run(capsys, *argv)
        assert status == 0 and out.startswith("1,2/3/4/5/6/7/8/9/10 0 0\n")
        status, out, _ = run(capsys, *argv, "--format", "json")
        assert status == 0
        assert json.loads(out)[0] == {"partition": "1,2/3/4/5/6/7/8/9/10", "nsb": 0, "nse": 0}

    @pytest.mark.parametrize(
        "n, k, flavor",
        [(5, 2, "ssp"), (5, 2, "lsp"), (5, 2, "slp"), (5, 2, "llp"), (10, 9, "slp")],
    )
    def test_records_equal_the_definitions(self, capsys, n, k, flavor):
        # every block is rendered once per command; each record must still
        # be the object's own text, nsb and nse
        argv = ("--n", str(n), "--k", str(k), "--flavor", flavor, "--stats")
        status, out, _ = run(capsys, "enumerate", *argv, "--format", "csv")
        expected = [
            [pi.to_string(), str(partitions.nsb(pi)), str(partitions.nse(pi))]
            for pi in partitions.enumerate_partitions(n, k, flavor)
        ]
        assert status == 0
        assert list(csv.reader(io.StringIO(out)))[1:] == expected

    @pytest.mark.parametrize("flavor", partitions.FLAVORS)
    def test_stats_lines_equal_the_public_statistics(self, capsys, flavor):
        # nsb is taken once per block order and nse from per-block word
        # lists; every line must still be the object's own, in its order.
        # One cell past n = 9, in comma notation, runs too; no llp cell there
        # is within the budget (llp(10,k) >= 10!), so for llp the first
        # records of a forced cell are read from the record stream
        wide = {"ssp": [(11, 9)], "lsp": [(10, 2)], "slp": [(10, 9)], "llp": []}
        cells = [(n, k) for n in range(8) for k in range(n + 2)] + wide[flavor]
        for n, k in cells:
            argv = ("--n", str(n), "--k", str(k), "--flavor", flavor, "--stats")
            status, out, _ = run(capsys, "enumerate", *argv)
            expected = "".join(
                f"{pi} {partitions.nsb(pi)} {partitions.nse(pi)}\n"
                for pi in partitions.enumerate_partitions(n, k, flavor)
            )
            assert (status, out) == (0, expected), (n, k)
        if flavor == "llp":
            records = partitions._records(10, 6, "llp", True)
            objects = partitions.enumerate_partitions(10, 6, "llp", force=True)
            for record, pi in islice(zip(records, objects), 5000):
                assert record == (str(pi), partitions.nsb(pi), partitions.nse(pi))

    def test_near_diagonal_refusal_is_stated_at_once(self, capsys):
        # k^(n-k)*n bounds S(n, n-1)*n from below, with no Stirling table
        start = time.perf_counter()
        status, out, err = run(
            capsys, "enumerate", "--n", "100000", "--k", "99999", "--flavor", "ssp"
        )
        assert time.perf_counter() - start < 2
        assert (status, out) == (2, "")
        assert "ssp enumeration for n=100000, k=99999 lists at least 9999900000 elements" in err

    def test_json_is_written_while_enumerating(self, capsys, monkeypatch):
        # records come one block order at a time: a failure at the 200th of
        # llp(6,3)'s 540 orders finds the objects of the first 199 written
        before = list(partitions._arrangements(6, 3, "llp"))[:199]
        fail_at_order(monkeypatch, 200)
        status, out, err = run(
            capsys, "enumerate", "--n", "6", "--k", "3", "--flavor", "llp", "--stats",
            "--format", "json",
        )
        assert status == 2 and "late failure" in err
        # objects before the failure are already out, in the array's bytes
        assert out.startswith('[\n  {\n    "partition": "1234/5/6",\n    "nsb": 0,')
        written = sum(prod(map(factorial, map(len, order))) for order in before)
        assert out.count('"partition"') == written > 2500


class TestDist:
    def test_oracle_equal(self, capsys):
        status, out, _ = run(capsys, "dist", "--n", "3", "--k", "2", "--oracle")
        assert status == 0
        assert "cardinality  12" in out
        assert out.rstrip().endswith("EQUAL")

    def test_csv_grid(self, capsys):
        status, out, _ = run(capsys, "dist", "--n", "3", "--k", "2", "--format", "csv")
        assert status == 0
        assert out == "v\\u,0,1\n0,3,3\n1,3,3\n"

    def test_json_round_trip(self, capsys):
        status, out, _ = run(
            capsys, "dist", "--n", "4", "--k", "2", "--oracle", "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["poly"] == s_uv(4, 2).to_json_obj()
        assert payload["poly"] == payload["enumeration"]

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_negative_n_is_refused_on_both_paths(self, capsys, oracle):
        status, out, err = run(capsys, "dist", "--n", "-1", "--k", "1", *oracle)
        assert (status, out) == (2, "")
        assert "n must be a nonnegative integer, got -1" in err

    def test_large_cell_is_refused_at_once(self):
        # a subprocess, as a user runs it: the digit bound refuses before
        # either Stirling triangle grows (this cell ran out of memory there)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pqtouchard.cli", "dist", "--n", "3000", "--k", "1500"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 2
        assert (result.returncode, result.stdout) == (2, "")
        assert "dist for n=3000, k=1500 holds up to 104882870330 digits" in result.stderr
        assert f"budget of {cli.DIST_DIGIT_BUDGET}; pass --force" in result.stderr

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_budget_edge(self, capsys, monkeypatch, oracle):
        # rows 0..4 of both triangles hold 2 * 15 numbers of at most 2 digits
        # (4! = 24); the 12 terms of s_uv(4,2) and A are at most 4!*2^4 = 384
        monkeypatch.setattr(cli, "DIST_DIGIT_BUDGET", 96)
        assert run(capsys, "dist", "--n", "4", "--k", "2", *oracle)[0] == 0
        status, out, err = run(capsys, "dist", "--n", "5", "--k", "2", *oracle)
        assert (status, out) == (2, "")
        assert "dist for n=5, k=2 holds up to 190 digits, over the budget of 96" in err

    def test_documented_edges(self, capsys):
        # every cell up to n = 513 fits, as the comment at DIST_DIGIT_BUDGET
        # states; a k past n answers 0 at any n without growing a table
        budget = cli.DIST_DIGIT_BUDGET
        assert all(cli._dist_digits(513, k) <= budget for k in range(514))
        assert any(cli._dist_digits(514, k) > budget for k in range(515))
        rows = [len(t[0]) for t in (tables._STIRLING1, tables._STIRLING2)]
        for n in (2, 10**6):
            for k in (n + 1, n + 554, n + 3000):
                assert cli._dist_digits(n, k) == 0
                assert run(capsys, "dist", "--n", str(n), "--k", str(k)) == (0, "0\n", "")
        assert [len(t[0]) for t in (tables._STIRLING1, tables._STIRLING2)] == rows

    def test_bound_covers_the_held_numbers(self):
        def digits(values):
            return sum(len(str(abs(v))) for v in values)

        for n in range(13):
            for k in range(-1, n + 3):
                grown = len(tables._STIRLING1[0])
                a, _ = touchard._factors(n, k)
                # the triangles are held to row n, and only for 0 <= k <= n
                rows = range(n + 1) if 0 <= k <= n else ()
                if k > n:
                    assert len(tables._STIRLING1[0]) == grown, (n, k)
                held = digits(
                    f(m, i) for f in (stirling1_unsigned, stirling2)
                    for m in rows for i in range(m + 1)
                )
                held += digits(s_uv(n, k).terms.values()) + digits(a)
                assert held <= cli._dist_digits(n, k), (n, k)

    def test_force_lifts_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DIST_DIGIT_BUDGET", 1)
        argv = ("dist", "--n", "3", "--k", "2", "--format", "csv")
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "") and "pass --force" in err
        assert run(capsys, *argv, "--force")[:2] == (0, "v\\u,0,1\n0,3,3\n1,3,3\n")

    def test_unbounded_n_is_refused(self, capsys):
        status, out, err = run(capsys, "dist", "--n", str(10**400), "--k", "1")
        assert (status, out) == (2, "")
        assert "--n or --k is too large to compute" in err

    def test_failed_oracle_is_reported(self, capsys, monkeypatch):
        # the enumeration of cell (3, 2) gains one object with nse = 1
        V = MultiPoly.var("v")
        dist_poly = touchard.dist_poly
        monkeypatch.setattr(
            touchard, "dist_poly",
            lambda n, k, **kw: dist_poly(n, k, **kw) + (V if (n, k) == (3, 2) else 0),
        )
        failed = "formula-match, corner-u1v1, corner-u0v1"
        status, out, err = run(capsys, "dist", "--n", "3", "--k", "2", "--oracle")
        assert (status, err) == (1, f"verification failed: {failed}\n")
        assert out.splitlines() == [
            "formula      3 + 3*u + 3*v + 3*u*v",
            "enumeration  3 + 3*u + 4*v + 3*u*v",
            "cardinality  12",
            f"MISMATCH ({failed})",
        ]
        status, out, _ = run(capsys, "dist", "--n", "3", "--k", "2", "--oracle", "--format", "json")
        payload = json.loads(out)
        assert status == 1 and payload["passed"] is False
        assert [name for name, ok in payload["checks"].items() if not ok] == failed.split(", ")
        # csv is the closed form's grid alone; the status still reports the failure
        status, out, _ = run(capsys, "dist", "--n", "3", "--k", "2", "--oracle", "--format", "csv")
        assert (status, out) == (1, "v\\u,0,1\n0,3,3\n1,3,3\n")


def run_cold(*args, timeout=30):
    """python *args in a fresh interpreter, as a user runs the command line,
    held to 1 GB of address space: (result, wall seconds)."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    return result, time.perf_counter() - start


class TestDecidedBeforeWork:
    # each cell is answered or refused before any table grows or any object
    # is built, so each command ends at once, well inside 1 GB
    CASES = [
        (("-c", "from pqtouchard import s_uv, tables; "
                "print(s_uv(2, 3000), len(tables._STIRLING1[0]))"), 0, "0 1\n", ""),
        (("-m", "pqtouchard.cli", "dist", "--n", "2", "--k", "3000", "--force"), 0, "0\n", ""),
        (("-m", "pqtouchard.cli", "dist", "--n", "2", "--k", "556"), 0, "0\n", ""),
        (("-m", "pqtouchard.cli", "verify", "--identity", "llp-grid", "--nmax", str(10**30)),
         2, "", "llp tally for n=14, k=1 reads 35350562 elements"),
        (("-m", "pqtouchard.cli", "avg-nse", "--n", "1000", "--check"),
         2, "", "slp tally for n=1000, k=1 reads 35350560 elements"),
        # a one-object cell of a huge n lists n elements
        (("-m", "pqtouchard.cli", "enumerate", "--n", str(10**400), "--k", "1", "--flavor", "ssp"),
         2, "", "k=1 hold a 401-digit number of elements, over the list length limit of"),
        (("-m", "pqtouchard.cli", "enumerate", "--n", str(10**9), "--k", "1", "--flavor", "ssp"),
         2, "", "n=1000000000, k=1 lists objects of 1000000000 elements, over the budget"),
        (("-m", "pqtouchard.cli", "enumerate", "--n", str(10**400), "--k", "1", "--flavor", "ssp",
          "--force"), 2, "", f"elements, over the list length limit of {sys.maxsize}"),
        # a decimal exponent is bounded before Fraction multiplies it out
        (("-m", "pqtouchard.cli", "eval", "--n", "1", "--x", "1e999999999", "--p", "2",
          "--q", "2"), 2, "", "'1e999999999' has an exponent over 100000 in magnitude"),
        (("-m", "pqtouchard.cli", "expand", "--n", "1", "--at", "x=-2.5E-999999999"),
         2, "", "'-2.5E-999999999' has an exponent over 100000 in magnitude"),
        # on lsp's diagonal, k! is bounded by the budget's bit length and n is decided first
        (("-m", "pqtouchard.cli", "enumerate", "--n", "250000", "--k", "250000",
          "--flavor", "lsp"), 2, "", "lists at least 155112100433309859840000000000 elements"),
        (("-m", "pqtouchard.cli", "enumerate", "--n", str(10**400), "--k", str(10**400),
          "--flavor", "lsp"), 2, "", "hold a 401-digit number of elements, over the list length"),
        # of few objects, but the elements are priced: one ran past 60 s, the
        # other out of memory
        (("-m", "pqtouchard.cli", "enumerate", "--n", "1200", "--k", "1199", "--flavor", "ssp",
          "--stats"), 2, "", "k=1199 lists 863280000 elements, over the budget of 12000000"),
        (("-m", "pqtouchard.cli", "enumerate", "--n", "2000000", "--k", "2000000",
          "--flavor", "slp"), 2, "", "lists objects of 2000000 elements, over the budget of 250000"),
    ]

    @pytest.mark.parametrize("args, status, out, err", CASES, ids=range(len(CASES)))
    def test_at_once(self, args, status, out, err):
        result, wall = run_cold(*args)
        assert (result.returncode, result.stdout) == (status, out), result.stderr
        assert err in result.stderr and "Traceback" not in result.stderr
        assert wall < 5


# every over-budget refusal: what was asked, its size and unit, the budget,
# then how to get past it where there is a way
REFUSAL = re.compile(
    r"(?P<what>.+) (?P<size>\d+|a \d+-digit number of) (?P<unit>\w+), "
    r"over the budget of (?P<budget>\d+)(; (?P<hint>.+))?"
)


@pytest.mark.parametrize("argv, budget", [
    (("table", "--name", "stirling2", "--nmax", "2000"), cli.TABLE_DIGIT_BUDGET),
    (("expand", "--n", "96"), cli.EXPAND_TERM_BUDGET),
    (("dist", "--n", "3000", "--k", "1500"), cli.DIST_DIGIT_BUDGET),
    (("enumerate", "--n", "9", "--k", "2", "--flavor", "llp"), partitions.ELEMENT_BUDGET),
    (("enumerate", "--n", "300", "--k", "299", "--flavor", "ssp"), partitions.ELEMENT_BUDGET),
    (("enumerate", "--n", "250001", "--k", "1", "--flavor", "ssp"), partitions.LENGTH_BUDGET),
    (("verify", "--identity", "llp-grid", "--nmax", "14"), partitions.ELEMENT_BUDGET),
    (("avg-nse", "--n", "1000", "--check"), partitions.ELEMENT_BUDGET),
    (("perm-stats", "--n", "14"), partitions.ELEMENT_BUDGET),
    (None, partitions.COUNT_DIGIT_BUDGET),
], ids=["table", "expand", "dist", "enumerate", "enumerate-elements", "enumerate-length",
        "verify", "avg-nse", "perm-stats", "count_partitions"])
def test_every_budget_refuses_in_one_shape(capsys, argv, budget):
    if argv is None:
        with pytest.raises(ValueError) as refused:
            partitions.count_partitions(218, 108, "ssp")
        message = str(refused.value)
    else:
        status, out, err = run(capsys, *argv)
        assert (status, out, err[:7], err[-1:]) == (2, "", "error: ", "\n"), err
        message = err[7:-1]
    shape = REFUSAL.fullmatch(message)
    assert shape and int(shape["budget"]) == budget, message
    assert not shape["size"].isdigit() or int(shape["size"]) > budget, message


class TestVerify:
    def test_single_identity(self, capsys):
        status, out, _ = run(capsys, "verify", "--identity", "stirling12", "--nmax", "6")
        assert status == 0
        assert "PASS" in out

    def test_json(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--identity", "orthogonality", "--nmax", "6",
            "--format", "json",
        )
        assert status == 0
        report = json.loads(out)["reports"][0]
        assert report["passed"] is True
        assert report["failures"] == 0

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = VerificationReport(
            "stirling12", 4, (("n=1,k=1", False),), "n=1,k=1: 0 != 1"
        )
        monkeypatch.setattr(
            touchard, "verify_identity", lambda name, n_max, force=False: broken
        )
        status, out, _ = run(capsys, "verify", "--identity", "stirling12")
        assert status == 1
        assert "FAIL" in out
        assert "n=1,k=1: 0 != 1" in out

    def test_unknown_identity_is_usage_error(self, capsys):
        status, _, err = run(capsys, "verify", "--identity", "bogus")
        assert status == 2
        assert "invalid choice" in err


class TestTable:
    def test_triangle_plain(self, capsys):
        status, out, _ = run(capsys, "table", "--name", "binomial", "--nmax", "3")
        assert status == 0
        assert out == "1\n1 1\n1 2 1\n1 3 3 1\n"

    def test_sequence_csv(self, capsys):
        status, out, _ = run(
            capsys, "table", "--name", "factorial", "--nmax", "3", "--format", "csv"
        )
        assert status == 0
        assert out == "n,value\n0,1\n1,1\n2,2\n3,6\n"

    def test_q_product_var(self, capsys):
        status, out, _ = run(
            capsys, "table", "--name", "q-product", "--nmax", "2", "--var", "p"
        )
        assert status == 0
        assert out == "1\np\n-p + 2*p^2\n"

    def test_signed_rows(self, capsys):
        status, out, _ = run(capsys, "table", "--name", "stirling1-signed", "--nmax", "3")
        assert status == 0
        assert out.splitlines()[3] == "0 2 -3 1"

    @pytest.mark.parametrize("name", list(ENTRIES))
    def test_rows_equal_the_entries(self, capsys, name):
        # rows are read whole from the triangle; each entry must be the one
        # the public entry function gives
        nmax = 40
        rows = [[ENTRIES[name](n, k) for k in range(n + 1)] for n in range(nmax + 1)]
        table = io.StringIO()
        csv.writer(table, lineterminator="\n").writerows(rows)
        expected = {
            "plain": "".join(" ".join(map(str, row)) + "\n" for row in rows),
            "csv": table.getvalue(),
            "json": json.dumps(
                {"name": name, "nmax": nmax, "rows": [list(map(str, r)) for r in rows]},
                indent=2,
            ) + "\n",
        }
        for fmt, text in expected.items():
            argv = ("table", "--name", name, "--nmax", str(nmax), "--format", fmt)
            assert run(capsys, *argv)[:2] == (0, text), fmt

    @pytest.mark.parametrize("name", ["bell", "factorial", "q-product"])
    def test_sequences_equal_independent_values(self, capsys, name):
        # the streamed values against sources they do not share: math's
        # factorial per n, row sums of the public stirling2 entries, exp_q
        values = {
            "bell": [sum(stirling2(n, k) for k in range(n + 1)) for n in range(41)],
            "factorial": [math_factorial(n) for n in range(41)],
            "q-product": exp_q(41, MultiPoly.var("q") - 1)[1:],
        }[name]
        for nmax in range(41):
            head = values[: nmax + 1]
            table = io.StringIO()
            csv.writer(table, lineterminator="\n").writerows(
                [["n", "poly" if name == "q-product" else "value"], *enumerate(head)]
            )
            if name == "q-product":
                fields = {"var": "q", "nmax": nmax, "polys": [p.to_json_obj() for p in head]}
            else:
                fields = {"nmax": nmax, "values": list(map(str, head))}
            expected = {
                "plain": "".join(f"{value}\n" for value in head),
                "csv": table.getvalue(),
                "json": json.dumps({"name": name, **fields}, indent=2) + "\n",
            }
            for fmt, text in expected.items():
                argv = ("table", "--name", name, "--nmax", str(nmax), "--format", fmt)
                assert run(capsys, *argv)[:2] == (0, text), (fmt, nmax)

    def test_tables_keep_no_triangle(self, tmp_path):
        # every name streams its rows, each dropped once it is written, so
        # no triangle grows past its first row in any format
        script = (
            "import sys\n"
            "from pqtouchard import cli, tables\n"
            "names = (*cli._TRIANGLES, *cli._SEQUENCES, 'q-product')\n"
            "status = {cli.main(['table', '--name', name, '--nmax', '300',\n"
            "                    '--format', fmt, '--out', sys.argv[1]])\n"
            "          for name in names for fmt in ('plain', 'json', 'csv')}\n"
            "triangles = (tables._BINOMIAL, tables._STIRLING1, tables._STIRLING2)\n"
            "print(status, [len(rows) for rows, _ in triangles])\n"
        )
        result, _ = run_cold("-c", script, str(tmp_path / "table"), timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "{0} [1, 1, 1]"

    def test_a_streamed_table_holds_little(self, tmp_path):
        # rows 0..300 of stirling2 take about 6 MB when kept; streamed, the
        # row in hand and the writer's chunks stay well under 1.5 MB
        script = (
            "import sys, tracemalloc\n"
            "from pqtouchard import cli\n"
            "tracemalloc.start()\n"
            "status = cli.main(['table', '--name', 'stirling2', '--nmax', '300',\n"
            "                   '--format', 'json', '--out', sys.argv[1]])\n"
            "print(status, tracemalloc.get_traced_memory()[1])\n"
        )
        result, _ = run_cold("-c", script, str(tmp_path / "table"), timeout=60)
        assert result.returncode == 0, result.stderr
        status, peak = map(int, result.stdout.split())
        assert status == 0
        assert peak < 1.5 * 2**20, peak

    def test_json_big_values_are_strings(self, capsys):
        status, out, _ = run(
            capsys, "table", "--name", "bell", "--nmax", "30", "--format", "json"
        )
        assert status == 0
        values = json.loads(out)["values"]
        assert values[30] == "846749014511809332450147"


    def test_large_table_is_refused_at_once(self):
        # a subprocess, as a user runs it: the digit bound refuses before any
        # row is grown (this table wrote 1.48 GB before the budget)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pqtouchard.cli", "table", "--name", "stirling2",
             "--nmax", "1500"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 10
        assert (result.returncode, result.stdout) == (2, "")
        assert "table stirling2 for nmax=1500 prints up to 4638637865 digits" in result.stderr
        assert f"budget of {cli.TABLE_DIGIT_BUDGET}; pass --force" in result.stderr

    def test_budget_edge(self, capsys, monkeypatch):
        # binomial rows 0..3 are 10 one-digit numbers; rows 0..4 are bounded
        # by 15 numbers of at most 2 digits (2^4 = 16)
        monkeypatch.setattr(cli, "TABLE_DIGIT_BUDGET", 10)
        assert run(capsys, "table", "--name", "binomial", "--nmax", "3")[:2] == (
            0, "1\n1 1\n1 2 1\n1 3 3 1\n"
        )
        status, out, err = run(capsys, "table", "--name", "binomial", "--nmax", "4")
        assert (status, out) == (2, "")
        assert "table binomial for nmax=4 prints up to 30 digits, over the budget of 10" in err

    def test_documented_edges(self):
        # the largest nmax each name may print without --force, as the
        # comment at TABLE_DIGIT_BUDGET states them; 300 fits for every name
        edges = {"binomial": 690, "q-product": 345, "factorial": 3973}
        for name in (*cli._TRIANGLES, *cli._SEQUENCES, "q-product"):
            edge = edges.get(name, 359)
            assert cli._table_digits(name, 300) <= cli.TABLE_DIGIT_BUDGET, name
            assert cli._table_digits(name, edge) <= cli.TABLE_DIGIT_BUDGET, name
            assert cli._table_digits(name, edge + 1) > cli.TABLE_DIGIT_BUDGET, name

    def test_bound_covers_the_printed_numbers(self):
        def digits(values):
            # counted from the text, with no arithmetic: abs() of a Decimal
            # rounds to the context's 28 digits
            return sum(len(str(v).lstrip("-")) for v in values)

        assert ENTRIES.keys() == cli._TRIANGLES.keys()
        for nmax in range(40):
            for name, fn in ENTRIES.items():
                printed = digits(fn(n, k) for n in range(nmax + 1) for k in range(n + 1))
                assert printed <= cli._table_digits(name, nmax), (name, nmax)
            for name, values in cli._SEQUENCES.items():
                # the values 0..nmax, streamed as the command prints them
                printed = digits(values(nmax))
                assert printed <= cli._table_digits(name, nmax), (name, nmax)
            polys = exp_q(nmax + 1, MultiPoly.var("q") - 1)[1:]
            printed = digits(c for poly in polys for c in poly.terms.values())
            assert printed <= cli._table_digits("q-product", nmax), nmax

    def test_streams_ignore_the_callers_context(self):
        # the Decimal rows and values are made, negated and multiplied in
        # tables._EXACT: under a 5-digit context a bare -c, * or sum rounds,
        # and a 1-digit one rounds each weight past 9
        nmax = 60
        for prec in (5, 1):
            with decimal.localcontext() as context:
                context.prec = prec
                for name, rows in cli._TRIANGLES.items():
                    expected = [
                        tuple(str(ENTRIES[name](n, k)) for k in range(n + 1))
                        for n in range(nmax + 1)
                    ]
                    assert list(rows(nmax)) == expected, (name, prec)
                expected = {
                    "bell": [sum(stirling2(n, k) for k in range(n + 1)) for n in range(nmax + 1)],
                    "factorial": list(map(math_factorial, range(nmax + 1))),
                }
                assert cli._SEQUENCES.keys() == expected.keys()
                for name, values in cli._SEQUENCES.items():
                    assert list(values(nmax)) == list(map(str, expected[name])), (name, prec)

    @pytest.mark.parametrize("name", ["stirling2", "stirling1", "stirling1-signed", "factorial"])
    def test_a_rounding_raises_before_it_prints(self, capsys, monkeypatch, name):
        # with too few digits in _EXACT, the first rounded entry raises
        # Rounded: the stream yields the exact numerals up to it, and what
        # was printed before it is the exact table's head
        stream = {**cli._TRIANGLES, **cli._SEQUENCES}[name]
        exact_rows = list(stream(60))
        argv = ("table", "--name", name, "--nmax", "60")
        status, exact, _ = run(capsys, *argv)
        assert status == 0
        monkeypatch.setattr(tables._EXACT, "prec", 20)
        rows = []
        with pytest.raises(decimal.Rounded):
            rows.extend(stream(60))
        assert rows == exact_rows[: len(rows)] and 0 < len(rows) < len(exact_rows)
        with pytest.raises(decimal.Rounded):
            main(list(argv))
        out = capsys.readouterr().out
        assert exact.startswith(out) and len(out) < len(exact)

    def test_binomial_rows_are_mirrored_halves(self):
        # entries 0..m//2 of each row are rendered and mirrored; the rows of
        # both parities, m = 0, 1 and 2 among them, must be the kept rows
        rows = list(cli._TRIANGLES["binomial"](300))
        assert rows[:4] == [("1",), ("1", "1"), ("1", "2", "1"), ("1", "3", "3", "1")]
        assert all(type(row) is cli._Numerals for row in rows)
        kept = tables._rows(tables._BINOMIAL, 300)
        assert rows == [tuple(map(str, row)) for row in kept]
        assert list(cli._TRIANGLES["binomial"](0)) == [("1",)]

    def test_force_lifts_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_DIGIT_BUDGET", 1)
        status, out, err = run(capsys, "table", "--name", "bell", "--nmax", "3")
        assert (status, out) == (2, "") and "pass --force" in err
        argv = ("table", "--name", "bell", "--nmax", "3", "--force")
        assert run(capsys, *argv)[:2] == (0, "1\n1\n2\n5\n")

    def test_unprintable_nmax_is_refused(self, capsys):
        status, out, err = run(capsys, "table", "--name", "bell", "--nmax", str(10**400))
        assert (status, out) == (2, "")
        assert "is too large to print" in err


# CPython 3.10.7 and later refuse str() of an int past a digit limit
_get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


@contextlib.contextmanager
def _digit_limit(limit):
    """The interpreter's str<->int digit limit set to `limit` (0 lifts it)
    inside the block and restored after it; nothing on interpreters without
    the limit."""
    old = _get_limit()
    if old is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


class TestDigitLimit:
    # each command runs under the interpreter's default limit of 4,300 digits;
    # the expected strings are built with the limit lifted

    def test_table_prints_past_the_limit(self, capsys):
        argv = ("table", "--name", "factorial", "--nmax", "1560")
        with _digit_limit(4300):
            status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        lines = out.splitlines()
        with _digit_limit(0):
            assert len(lines) == 1561
            assert lines[-1] == str(factorial(1560))

    def test_eval_prints_past_the_limit(self, capsys):
        x = "1" + "0" * 40
        argv = ("eval", "--n", "120", "--x", x, "--p", "2", "--q", "2")
        with _digit_limit(4300):
            status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        with _digit_limit(0):
            expected = str(touchard_eval(120, int(x), 2, 2))
        assert len(expected) > 4300
        assert out == expected + "\n"

    @pytest.mark.parametrize(
        "argv,code",
        [(("table", "--name", "factorial", "--nmax", "1560"), 0),
         (("table", "--name", "stirling2", "--nmax", "1500"), 2)],
        ids=["success", "error"],
    )
    def test_limit_is_restored(self, capsys, argv, code):
        with _digit_limit(4300):
            assert run(capsys, *argv)[0] == code
            assert _get_limit() in (4300, None)


class TestSmallCommands:
    def test_eval_and_avg_nse_grow_no_table(self):
        # both stream their rows, each dropped once the next is built
        script = (
            "from pqtouchard import cli, tables\n"
            "def sizes():\n"
            "    return len(tables._STIRLING1[0]), len(tables._STIRLING2[0])\n"
            "before = sizes()\n"
            "cli.main(['eval', '--n', '300', '--x', '4/7', '--p', '-7/5', '--q', '5/7'])\n"
            "cli.main(['avg-nse', '--n', '300'])\n"
            "print(before, sizes())\n"
        )
        result, _ = run_cold("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "(1, 1) (1, 1)"

    def test_avg_nse_check(self, capsys):
        status, out, _ = run(capsys, "avg-nse", "--n", "2", "--check")
        assert status == 0
        assert out == "1/3\nenumeration 1/3\nEQUAL\n"

    def test_avg_nse_json(self, capsys):
        status, out, _ = run(
            capsys, "avg-nse", "--n", "3", "--check", "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["value"] == "10/13"
        assert payload["equal"] is True

    def test_perm_stats_plain(self, capsys):
        status, out, _ = run(capsys, "perm-stats", "--n", "3")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "j nse_count k ltrmax_count"
        assert lines[1:] == ["0 1 3 1", "1 3 2 3", "2 2 1 2"]

    def test_perm_stats_budget(self, capsys):
        status, _, err = run(capsys, "perm-stats", "--n", "14")
        assert status == 2
        assert "budget" in err

    def test_avg_nse_check_refuses_before_enumerating(self, capsys, monkeypatch):
        tallies = []
        shapes = partitions._block_shapes

        def counting(n, k):
            tallies.append((n, k))
            return shapes(n, k)

        def never(n):
            raise AssertionError("avg_nse ran before the cells were checked")

        monkeypatch.setattr(partitions, "_block_shapes", counting)
        monkeypatch.setattr(touchard, "avg_nse", never)
        # slp(9,1), one block of 9 entries, reads 33,696 elements in its
        # scans and 7 in its one shape; slp(9,2) reads 12,013
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 30_000)
        status, out, err = run(capsys, "avg-nse", "--n", "9", "--check")
        assert (status, out) == (2, "")
        assert "slp tally for n=9, k=1 reads 33696 elements" in err
        assert "budget of 30000" in err
        # avg-nse has no --force to suggest
        assert "force" not in err
        assert tallies == []


class TestHarness:
    def test_usage_errors(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys, "expand")[0] == 2
        assert run(capsys)[0] == 2

    def test_help(self, capsys):
        status, out, _ = run(capsys, "--help")
        assert status == 0
        assert "usage" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "poly.txt"
        status, out, _ = run(capsys, "expand", "--n", "2", "--out", str(target))
        assert status == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == "q*x + p*x^2\n"

    def test_failed_command_leaves_out_file_alone(self, capsys, monkeypatch, tmp_path):
        kept = tmp_path / "kept.txt"
        kept.write_text("earlier output\n", encoding="utf-8")
        refused = (
            ("enumerate", "--n", "9", "--k", "2", "--flavor", "llp"),
            ("perm-stats", "--n", "14"),
        )
        for argv in refused:
            for target in (kept, tmp_path / "new.txt"):
                status, out, err = run(capsys, *argv, "--out", str(target))
                assert (status, out) == (2, "")
                assert err.startswith("error:")
        # an error raised while the output is being written: llp(3,2) has
        # six block orders, and the third one fails
        fail_at_order(monkeypatch, 3)
        argv = ("enumerate", "--n", "3", "--k", "2", "--flavor", "llp", "--stats")
        status, _, err = run(capsys, *argv, "--out", str(kept))
        assert status == 2 and "late failure" in err
        assert kept.read_text(encoding="utf-8") == "earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]

    def test_closed_pipe_is_quiet(self):
        # the reader stops after 100 bytes of a few megabytes, as `| head -c 100`
        proc = subprocess.Popen(
            [sys.executable, "-m", "pqtouchard.cli", "enumerate", "--n", "8",
             "--k", "3", "--flavor", "slp"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_deterministic_output(self, capsys):
        argv = ("enumerate", "--n", "4", "--k", "2", "--flavor", "llp",
                "--stats", "--format", "csv")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


# Exit status and stdout of every subcommand in every format, recorded
# before the handlers were rewritten; outputs longer than a few lines are
# pinned by their sha256.
PINNED = [
    ("table --name binomial --nmax 3", 0, "1\n1 1\n1 2 1\n1 3 3 1\n"),
    (
        "table --name binomial --nmax 3 --format json",
        0,
        "sha256:a69dca9c96c5c700ab0c914ab10eab5c216a9f29e3e42ad650dd3d32d8934a3a",
    ),
    ("table --name binomial --nmax 3 --format csv", 0, "1\n1,1\n1,2,1\n1,3,3,1\n"),
    # the two largest tables the benchmark prints, inside the digit budget
    (
        "table --name binomial --nmax 300",
        0,
        "sha256:c633281436646182e26dc58cde6b8f47c3bab1c523fc7255a21fa6a0f3eab950",
    ),
    (
        "table --name stirling2 --nmax 300",
        0,
        "sha256:97654bb3556d98187ea5583d982e13f43602939da5a4d479964b7f4d5b7b0ebe",
    ),
    # the largest json the benchmark prints, 9 MB
    (
        "table --name stirling2 --nmax 300 --format json",
        0,
        "sha256:2e590ee5661348450de2c10a8133da4f3a67c2033d041ffc12a4250d9a9397ba",
    ),
    (
        "table --name binomial --nmax 300 --format json",
        0,
        "sha256:1630b88b7f3fd9d091d4b24a2f79014dc6d28dddbfcd4107705e32e305dbc712",
    ),
    (
        "table --name binomial --nmax 300 --format csv",
        0,
        "sha256:6bb2185cc12e5dc5372a31e7876a44b96431e440d8d08261f4580ff6c9a4b59c",
    ),
    (
        "table --name stirling2 --nmax 300 --format csv",
        0,
        "sha256:957f0a931c9dfefbeceb41d4c9c5f1410e93068f61b24c62597b15c01ced07f7",
    ),
    # the unsigned Stirling-1 triangle, whose weight is one per row
    (
        "table --name stirling1 --nmax 300",
        0,
        "sha256:c8e6b68bd6fed13c23aef59dd2509a85dfeb26cc72c6f99eeb09902c059ab79d",
    ),
    (
        "table --name stirling1 --nmax 300 --format json",
        0,
        "sha256:f77735325708f3f68800b4dc1970806f0069c0402abd35ac822a464f2a05e39c",
    ),
    (
        "table --name stirling1 --nmax 300 --format csv",
        0,
        "sha256:9ed483b20d1638951fd6833f9c7dadef580008e04330470b8e3dc42c5a362bac",
    ),
    # the signed triangle, stepped by its own recurrence
    (
        "table --name stirling1-signed --nmax 300",
        0,
        "sha256:d3c482f546f5814d91950e59a5e721da1c86fb5ba0c800f5564f97ca9d3b7d20",
    ),
    (
        "table --name stirling1-signed --nmax 300 --format json",
        0,
        "sha256:6cad8294c0fd27ded535f8696850c441a6ddeef478738a9b8cb43108a0f6b29f",
    ),
    (
        "table --name stirling1-signed --nmax 300 --format csv",
        0,
        "sha256:6528794ac3f1655283c4bb0bb5f90c2e5e7bddeac8e586b1aedc3aab7d1013df",
    ),
    ("table --name stirling1-signed --nmax 3", 0, "1\n0 1\n0 -1 1\n0 2 -3 1\n"),
    (
        "table --name stirling1-signed --nmax 3 --format json",
        0,
        "sha256:6451396e89035622982060fd3322c41f61825ec3ac8165eaec9b3dbba88ea4dd",
    ),
    (
        "table --name stirling1-signed --nmax 3 --format csv",
        0,
        "1\n0,1\n0,-1,1\n0,2,-3,1\n",
    ),
    ("table --name bell --nmax 4", 0, "1\n1\n2\n5\n15\n"),
    (
        "table --name bell --nmax 4 --format json",
        0,
        "sha256:8e910daef8814a36031c3cbc5483f399114b62e295059a71b9818324f9ae5268",
    ),
    (
        "table --name bell --nmax 4 --format csv",
        0,
        "n,value\n0,1\n1,1\n2,2\n3,5\n4,15\n",
    ),
    (
        "table --name q-product --nmax 3 --var p",
        0,
        "1\np\n-p + 2*p^2\n2*p - 7*p^2 + 6*p^3\n",
    ),
    (
        "table --name q-product --nmax 3 --var p --format json",
        0,
        "sha256:e0911000fad35d8ba96c4b8d0232c639efec81b59a9fea7f1be83778b400a3b8",
    ),
    (
        "table --name q-product --nmax 3 --var p --format csv",
        0,
        "n,poly\n0,1\n1,p\n2,-p + 2*p^2\n3,2*p - 7*p^2 + 6*p^3\n",
    ),
    ("expand --n 3", 0, "-q*x + 2*q^2*x - p*x^3 + 3*p*q*x^2 + 2*p^2*x^3\n"),
    (
        "expand --n 3 --format json",
        0,
        "sha256:c93ff80af30fa86119e7627bd8ee2cf56cd7b04cceaf6bbc49db8f30db1a8a74",
    ),
    (
        "expand --n 3 --format csv",
        0,
        "x,p,q,coeff\n1,0,1,-1\n1,0,2,2\n3,1,0,-1\n2,1,1,3\n3,2,0,2\n",
    ),
    *(
        (
            f"expand --n 20 --route {route} --format csv",
            0,
            "sha256:0394c959985141f283ea5ad11537f558ac5a036acadfafc92d1ae4d4725d0ae3",
        )
        for route in ("substitution", "explicit", "composition")
    ),
    (
        "expand --n 4 --route composition",
        0,
        "2*q*x - 7*q^2*x - 4*p*q*x^2 + 6*q^3*x + 2*p*x^4 - 6*p*q*x^3 + 11*p*q^2*x^2 - 7*p^2*x^4 + 12*p^2*q*x^3 + 6*p^3*x^4\n",
    ),
    (
        "expand --n 4 --route composition --format json",
        0,
        "sha256:1aefdb9c53cfa072eb80424d2f6c4ce38dd941dde1e955b8524ee6c5b8e865df",
    ),
    (
        "expand --n 4 --route composition --format csv",
        0,
        "sha256:00d2301c83ed6376fc87b67f7eb45c3e08932aa0fc62f545e435c27ae0f96375",
    ),
    (
        "expand --n 30 --route composition",
        0,
        "sha256:319989bf903e9d0e0b4ce5535c458a345fbc8775c18270c0bb51e4f044593269",
    ),
    (
        "expand --n 30 --route composition --format json",
        0,
        "sha256:a3594fa40e7f41747061d491dee2363b9b6c9cb31f0b57e11dd3e7db2d8df4a1",
    ),
    ("expand --n 4 --at x=1/2,p=2,q=-3", 0, "-72\n"),
    (
        "expand --n 4 --at x=1/2,p=2,q=-3 --format json",
        0,
        "sha256:511afd43f6189e0d26b7a46542e4201e5ce87b0564ffce4c3aae9fca0a9ab6b7",
    ),
    ("expand --n 4 --at x=1/2,p=2,q=-3 --format csv", 0, "value\n-72\n"),
    ("eval --n 4 --x 1/2 --p 1 --q 1/3", 0, "49/144\n"),
    (
        "eval --n 4 --x 1/2 --p 1 --q 1/3 --format json",
        0,
        "sha256:852910f94bd95063d81a348440c04f97628b259b18a4ce8c58cf221def6fdab4",
    ),
    (
        "eval --n 4 --x 1/2 --p 1 --q 1/3 --format csv",
        0,
        "n,x,p,q,value\n4,1/2,1,1/3,49/144\n",
    ),
    ("eval --n 4 --x 2 --p 3 --q 1/2 --oracle", 0, "2049\noracle 2049\nEQUAL\n"),
    (
        "eval --n 4 --x 2 --p 3 --q 1/2 --oracle --format json",
        0,
        "sha256:6638883b5fcc8a2860691f93b80ba1be13bb3f195b5038e707ba2e7e22a76e3d",
    ),
    (
        "eval --n 4 --x 2 --p 3 --q 1/2 --oracle --format csv",
        0,
        "n,x,p,q,value,oracle,equal\n4,2,3,1/2,2049,2049,True\n",
    ),
    # `--p -7/5` would be read as an option, hence `--p=-7/5`
    (
        "eval --n 30 --x 4/7 --p=-7/5 --q 5/7 --oracle",
        0,
        "sha256:d182995230e115bcadd3070415cb62163af0150131e4439284d4b085d8f05bc6",
    ),
    (
        "eval --n 30 --x 4/7 --p=-7/5 --q 5/7 --oracle --format json",
        0,
        "sha256:2568f707d45ce2a901be58d976c7eeabf33cac0cc1a19eba4df7b4d320e5b7e3",
    ),
    (
        "eval --n 30 --x 4/7 --p=-7/5 --q 5/7 --oracle --format csv",
        0,
        "sha256:fcb6fabce8bb26e1e970df870a1665c78ffccbf83a40321ebd5decaa54ec0afd",
    ),
    ("enumerate --n 3 --k 2 --flavor lsp", 0, "12/3\n3/12\n13/2\n2/13\n1/23\n23/1\n"),
    (
        "enumerate --n 3 --k 2 --flavor lsp --format json",
        0,
        "sha256:6512416d2301844597d0bc2c7899e4cbde4b8744f4bc592c3130aad9445b82bc",
    ),
    (
        "enumerate --n 3 --k 2 --flavor lsp --format csv",
        0,
        "sha256:9aefe0f99ab4a2982ffea83b480279d228a5eac8cda648d8e4ef5d2129ec4eed",
    ),
    (
        "enumerate --n 3 --k 2 --flavor llp --stats",
        0,
        "sha256:de858e78fb41d88fcb9273e3e9060354cdab4bbc47f57af4e106f5cb8b87b42a",
    ),
    (
        "enumerate --n 3 --k 2 --flavor llp --stats --format json",
        0,
        "sha256:f0898010bc79b35da8ebd206bd8431104cce67d6a82d29e72c3c5527c909c6be",
    ),
    (
        "enumerate --n 3 --k 2 --flavor llp --stats --format csv",
        0,
        "sha256:e31700922d90e29d1201d14e6065b6ecb1d0e3d4598187e0e634cb9fcee54864",
    ),
    # the largest enumeration the benchmark prints as json: 7,200 records
    (
        "enumerate --n 6 --k 3 --flavor llp --stats --format json",
        0,
        "sha256:9f6a95921f9f8e53adc6ff4d76f9d7dad2e41ac23943822e9179b2a47e33cf93",
    ),
    ("dist --n 4 --k 2", 0, "7 + 7*u + 18*v + 18*u*v + 11*v^2 + 11*u*v^2\n"),
    (
        "dist --n 4 --k 2 --format json",
        0,
        "sha256:e27ca7dce4f34a715f28359c9f2d267199af0cd533485b0856797374b12270e9",
    ),
    ("dist --n 4 --k 2 --format csv", 0, "v\\u,0,1\n0,7,7\n1,18,18\n2,11,11\n"),
    (
        "dist --n 4 --k 3 --oracle",
        0,
        "formula      6 + 18*u + 6*v + 12*u^2 + 18*u*v + 12*u^2*v\nenumeration  6 + 18*u + 6*v + 12*u^2 + 18*u*v + 12*u^2*v\ncardinality  72\nEQUAL\n",
    ),
    (
        "dist --n 4 --k 3 --oracle --format json",
        0,
        "sha256:273707aab715db6afd10dd5581f06b0cc78d3fdf9e998208ca47e445c16ff33a",
    ),
    ("dist --n 4 --k 3 --oracle --format csv", 0, "v\\u,0,1,2\n0,6,18,12\n1,6,18,12\n"),
    (
        "verify --identity llp-grid --nmax 4",
        0,
        "identity llp-grid: 10 cells up to n=4: PASS\n",
    ),
    (
        "verify --identity llp-grid --nmax 4 --format json",
        0,
        "sha256:721892b41d3a3b0843b6c0e236978427fb6cb873ec4842e82d9278fa6f57b14e",
    ),
    (
        "verify --identity llp-grid --nmax 4 --format csv",
        0,
        "identity,nmax,cells,failures,passed\nllp-grid,4,10,0,True\n",
    ),
    (
        "verify --identity all --nmax 2",
        0,
        "identity stirling12: 3 cells up to n=2: PASS\n"
        "identity orthogonality: 6 cells up to n=2: PASS\n"
        "identity slp-count: 3 cells up to n=2: PASS\n"
        "identity llp-grid: 3 cells up to n=2: PASS\n"
        "identity lsp-slice: 3 cells up to n=2: PASS\n"
        "identity slp-slice: 3 cells up to n=2: PASS\n"
        "identity series-vs-explicit: 3 cells up to n=2: PASS\n"
        "identity oracle-vs-eval: 48 cells up to n=2: PASS\n"
        "identity eval-vs-poly: 75 cells up to n=2: PASS\n",
    ),
    ("avg-nse --n 4", 0, "92/73\n"),
    ("avg-nse --n 4 --format json", 0, "{\n  \"n\": 4,\n  \"value\": \"92/73\"\n}\n"),
    ("avg-nse --n 4 --format csv", 0, "n,value\n4,92/73\n"),
    ("avg-nse --n 4 --check", 0, "92/73\nenumeration 92/73\nEQUAL\n"),
    (
        "avg-nse --n 4 --check --format json",
        0,
        "{\n  \"n\": 4,\n  \"value\": \"92/73\",\n  \"enumeration\": \"92/73\",\n  \"equal\": true\n}\n",
    ),
    (
        "avg-nse --n 4 --check --format csv",
        0,
        "n,value,enumeration,equal\n4,92/73,92/73,True\n",
    ),
    (
        "perm-stats --n 4",
        0,
        "j nse_count k ltrmax_count\n0 1 4 1\n1 6 3 6\n2 11 2 11\n3 6 1 6\n",
    ),
    (
        "perm-stats --n 4 --format json",
        0,
        "sha256:b398428aa2a4ed1e821881934fe3a40e5c6e1c4723c9237a05560d60c2364fb8",
    ),
    (
        "perm-stats --n 4 --format csv",
        0,
        "j,nse_count,k,ltrmax_count\n0,1,4,1\n1,6,3,6\n2,11,2,11\n3,6,1,6\n",
    ),
    # the largest permutation tally the benchmark prints
    (
        "perm-stats --n 9",
        0,
        "sha256:0328078a034f5cd174f61c04d63a10557959c47f7456134b220d761d2bf279e4",
    ),
    (
        "perm-stats --n 9 --format json",
        0,
        "sha256:0b78844d4b44e0cb0affa2e201a7b7c4a32dc095ed186c4b1d443b732451ad66",
    ),
    (
        "perm-stats --n 9 --format csv",
        0,
        "sha256:9d7e0f9ca5da0ca22cd2c8d6516affb95091080a75fedbb9565e558ec432b880",
    ),
]


@pytest.mark.parametrize(
    "command,status,expected", PINNED, ids=[command for command, _, _ in PINNED]
)
def test_output_bytes_are_pinned(capsys, tmp_path, command, status, expected):
    argv = command.split()
    got_status, out, _ = run(capsys, *argv)
    assert got_status == status
    if expected.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == expected
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target))[:2] == (status, "")
    assert target.read_bytes() == out.encode()


# csv fields of every kind a command writes: ints and polynomials (joined
# directly when a row holds nothing else), integer Decimals, bools,
# fractions and text that needs quoting; and rows of numerals, "0" and
# negative ones among them, which `table` writes
_INTS = st.integers(min_value=-(10**50), max_value=10**50)
_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 5), _INTS, max_size=4).map(
    _wrap  # the zero polynomial, which prints 0, included
)
_PLAIN = st.one_of(_INTS, _POLYS)
_FIELDS = st.one_of(
    _PLAIN,
    _INTS.map(decimal.Decimal),
    st.booleans(),
    st.fractions(),
    st.sampled_from(["", ",", '"', "\n", "1,2/3", 'a"b']),
    st.text(alphabet=',"\n -/0123456789ab', max_size=8),
)
_NUMERALS = st.lists(st.one_of(st.just(0), _INTS), max_size=6).map(
    lambda values: cli._Numerals(map(str, values))
)


@given(
    st.lists(
        st.one_of(st.lists(_PLAIN, max_size=6), st.lists(_FIELDS, max_size=6), _NUMERALS)
    )
)
@settings(max_examples=300)
def test_csv_rows_equal_the_writer(rows):
    got = io.StringIO()
    cli._emit(cli._Output(dict, lambda: rows, list), "csv", got)
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(rows)
    assert got.getvalue() == want.getvalue()


class _Lazy(list):
    """A json array the writer is given as an iterator."""


def _as_given(value, lazy):
    # the payload with each _Lazy as an iterator (lazy) or as a list
    if isinstance(value, dict):
        return {key: _as_given(item, lazy) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_as_given(item, lazy) for item in value]
        return iter(items) if lazy and isinstance(value, _Lazy) else type(value)(items)
    return value


# json payloads of every kind the writer takes: nested containers, empty
# ones, iterators; str, int, bool and None keys; big ints; text that needs
# escaping (quotes, backslashes, control and non-ASCII characters); floats,
# which the writer hands to json.dumps
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\n\x1f\x7f", "é ∑ 😀", 'a"b\\c', ""]),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(_Lazy),
        st.dictionaries(
            st.one_of(st.text(), st.integers(), st.booleans(), st.none()), children, max_size=5
        ),
    ),
    max_leaves=40,
)


@given(_JSON_PAYLOADS)
@settings(max_examples=400)
def test_json_text_equals_the_encoder(payload):
    got = io.StringIO()
    cli._emit(cli._Output(lambda: _as_given(payload, True), list, list), "json", got)
    assert got.getvalue() == json.JSONEncoder(indent=2).encode(_as_given(payload, False)) + "\n"


@given(st.lists(st.text(), min_size=1, max_size=4, unique=True), st.data())
@settings(max_examples=200)
def test_records_equal_the_encoder(keys, data):
    # every other column is text that needs no escape, written '"{}"'; the
    # keys are any text, braces and escapes included, at the top level and
    # nested in an object
    texts = st.text(alphabet="0123456789,/", max_size=6)
    columns = [st.integers() if i % 2 else texts for i in range(len(keys))]
    rows = data.draw(st.lists(st.tuples(*columns), max_size=4))
    fields = {key: '"{}"' if i % 2 == 0 else "{}" for i, key in enumerate(keys)}
    objects = [dict(zip(keys, row)) for row in rows]
    for payload, expected in (
        (lambda: cli._Records(fields, iter(rows)), objects),
        (lambda: {"records": cli._Records(fields, iter(rows))}, {"records": objects}),
    ):
        got = io.StringIO()
        cli._emit(cli._Output(payload, list, list), "json", got)
        assert got.getvalue() == json.JSONEncoder(indent=2).encode(expected) + "\n"


@given(st.lists(_NUMERALS, max_size=4), st.data())
@settings(max_examples=200)
def test_numeral_rows_equal_the_encoder(rows, data):
    # rows of numerals, as `table` streams them, at the top level, as the
    # array a payload's iterator gives and nested in a list
    lists = [list(row) for row in rows]
    row = data.draw(_NUMERALS)
    for payload, expected in (
        (lambda: row, list(row)),
        (lambda: {"name": "t", "rows": iter(rows)}, {"name": "t", "rows": lists}),
        (lambda: [rows, row], [lists, list(row)]),
    ):
        got = io.StringIO()
        cli._emit(cli._Output(payload, list, list), "json", got)
        assert got.getvalue() == json.JSONEncoder(indent=2).encode(expected) + "\n"


@pytest.mark.parametrize("text", ["\x1f", "\x7f", '"', "\\", " ", "~", "é", "\ud800", "\t"])
def test_json_list_of_text_at_the_escape_edges(text):
    # a list of strings takes one quoting join when nothing in it needs an
    # escape; each edge of that test, alone and among digit strings
    for value in ([text], ["12", text, "3"], [text, text]):
        got = io.StringIO()
        cli._emit(cli._Output(lambda: value, list, list), "json", got)
        assert got.getvalue() == json.JSONEncoder(indent=2).encode(value) + "\n"


# main builds only the named command's parser, or, for an argv not led by
# a command name, only the named commands' arguments, so each of these must
# still read as the full parser has it, at a narrow and a wide terminal,
# since argparse wraps the usage to the width
COMMANDS = ("table", "expand", "eval", "enumerate", "dist", "verify", "avg-nse", "perm-stats")
PARSER_CASES = [
    "--help",
    *(f"{command} --help" for command in COMMANDS),
    "",
    "no-such-command",
    "table --name nope --nmax 3",
    # the top-level usage, with every command name
    "dist --n 5 --k 2 --bogus",
    "-h dist",
    "--bogus dist --n 1",
    "dist --n 1 --k 1 table",
    "perm-stats --n 2 perm-stats",
]


@pytest.mark.parametrize("command", PARSER_CASES)
def test_parser_bytes_equal_the_full_tree(capsys, monkeypatch, command):
    argv = command.split()
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert got == (int(exc.value.code or 0), *capsys.readouterr()), columns


def subparsers(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_only_the_named_command_gets_arguments():
    # led by a command name, argv gets that command's parser alone
    commands = subparsers(cli.build_parser(["dist", "--n", "5"]))
    assert list(commands) == ["dist"] and commands["dist"]._actions
    # otherwise every command is listed, each with its arguments
    for argv in (["--bogus", "dist"], [], None):
        commands = subparsers(cli.build_parser(argv))
        assert list(commands) == list(COMMANDS)
        assert all(any(a.dest == "format" for a in sub._actions) for sub in commands.values())


def test_a_named_command_builds_two_parsers(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "perm-stats", "--n", "2")[0] == 0
    assert built == ["pqtouchard", "pqtouchard perm-stats"]


def test_no_state_survives_a_call(capsys):
    # the parser and the json writer are built per call and dropped after it
    for fmt in ("json", "plain"):
        assert run(capsys, "table", "--name", "bell", "--nmax", "3", "--format", fmt)[0] == 0
    kinds = (argparse.ArgumentParser, json.JSONEncoder, GeneratorType, io.IOBase)
    assert [name for name, value in vars(cli).items() if isinstance(value, kinds)] == []

"""End-to-end runs of the command line through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pqtouchard import MultiPoly, VerificationReport, s_uv, touchard_poly
from pqtouchard import cli, partitions, touchard
from pqtouchard.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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
        assert MultiPoly.from_json_obj(payload["poly"]) == touchard_poly(4)

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
        status, _, err = run(capsys, "expand", "--n", "2", "--at", "y=1")
        assert status == 2
        assert err.startswith("error:")


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
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 50)
        status, _, err = run(capsys, "enumerate", "--n", "4", "--k", "2", "--flavor", "llp")
        assert status == 2
        assert "--force" in err
        status, out, _ = run(
            capsys, "enumerate", "--n", "4", "--k", "2", "--flavor", "llp", "--force"
        )
        assert status == 0
        assert len(out.splitlines()) == 72


    def test_one_object_at_large_n(self):
        # a subprocess, so the Stirling table grown for the count leaves with it
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
            assert f"{flavor} enumeration for n=3000, k=1500 visits at least" in err
            assert "budget of 2000000" in err
        status, _, err = run(
            capsys, "enumerate", "--n", "2000", "--k", "1000", "--flavor", "llp"
        )
        assert status == 2 and "budget of 2000000" in err

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

    def test_json_is_written_while_enumerating(self, capsys, monkeypatch):
        calls = []

        def nse_failing_late(pi):
            calls.append(pi)
            if len(calls) == 2500:
                raise ValueError("late failure")
            return partitions.nse(pi)

        monkeypatch.setattr(cli, "nse", nse_failing_late)
        status, out, err = run(
            capsys, "enumerate", "--n", "7", "--k", "1", "--flavor", "llp", "--stats",
            "--format", "json",
        )
        assert status == 2 and "late failure" in err
        # objects before the failure are already out, in the array's bytes
        assert out.startswith('[\n  {\n    "partition": "1234567",')
        assert 1000 <= out.count('"partition"') < 2500


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
        assert MultiPoly.from_json_obj(payload["poly"]) == s_uv(4, 2)
        assert payload["poly"] == payload["enumeration"]


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

    def test_json_big_values_are_strings(self, capsys):
        status, out, _ = run(
            capsys, "table", "--name", "bell", "--nmax", "30", "--format", "json"
        )
        assert status == 0
        values = json.loads(out)["values"]
        assert values[30] == "846749014511809332450147"


class TestSmallCommands:
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
        status, _, err = run(capsys, "perm-stats", "--n", "12")
        assert status == 2
        assert "budget" in err

    def test_avg_nse_check_refuses_before_enumerating(self, capsys, monkeypatch):
        streams = []
        generate = partitions._generate

        def counting(n, k, flavor):
            streams.append((n, k, flavor))
            return generate(n, k, flavor)

        monkeypatch.setattr(partitions, "_generate", counting)
        # slp(9,1) = 362,880 fits, slp(9,2) = 1,451,520 does not
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 400_000)
        partitions._tally.cache_clear()
        status, out, err = run(capsys, "avg-nse", "--n", "9", "--check")
        assert (status, out) == (2, "")
        assert "slp enumeration for n=9, k=2 visits 1451520 objects" in err
        assert "budget of 400000" in err
        # avg-nse has no --force to suggest
        assert "force" not in err
        assert streams == []


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
            ("perm-stats", "--n", "12"),
        )
        for argv in refused:
            for target in (kept, tmp_path / "new.txt"):
                status, out, err = run(capsys, *argv, "--out", str(target))
                assert (status, out) == (2, "")
                assert err.startswith("error:")
        # an error raised while the output is being written
        calls = []

        def nse_failing_late(pi):
            calls.append(pi)
            if len(calls) == 3:
                raise ValueError("late failure")
            return partitions.nse(pi)

        monkeypatch.setattr(cli, "nse", nse_failing_late)
        argv = ("enumerate", "--n", "3", "--k", "1", "--flavor", "llp", "--stats")
        status, _, err = run(capsys, *argv, "--out", str(kept))
        assert status == 2 and "late failure" in err
        assert kept.read_text(encoding="utf-8") == "earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]

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

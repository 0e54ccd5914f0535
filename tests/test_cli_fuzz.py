"""Random argv over every subcommand and option, each run as a user runs it.

Every run must end with exit 0, 1 or 2 and never print a traceback.  The
values include negative, zero, small, huge (up to 10^400), non-integer,
malformed and empty ones.  A huge value is drawn only where a budget
decides the request before any work: `eval`, `avg-nse` without --check and
the identities of `verify` that do not enumerate have no size budget, and
--force lifts the ones there are, so their sizes, and every size next to
--force, come from the small range.  `avg-nse --check` checks its cells
before any work, so it gets huge sizes too.  The small range stops at 6,
where every admitted request runs in well under a second.  `--k` at times
repeats `--n`, so huge cells on the diagonal are drawn too.  Rationals
include exponent forms far past the parser's exponent limit, which must be
refused before any work.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqtouchard import cli, touchard

MALFORMED = ("", " ", "--", "abc", "1.5", "1/2", "-7/5", "0x10", "nan", "1e3")
SMALL = st.integers(-2, 6).map(str)
HUGE = st.builds(lambda e, sign: str(sign * 10**e), st.integers(7, 400), st.sampled_from((1, -1)))
RATIONALS = (
    "0", "1", "-1", "2", "1/2", "-7/5", "3/4", "1/0", str(10**400), f"1/{10**400}",
    "1e400", "1e999999999", "-2.5E-999999999",
)
ENUMERATING = ("llp-grid", "lsp-slice", "slp-slice")


def sizes(huge: bool):
    """An integer option's value: small or malformed, and huge where allowed."""
    pools = [SMALL, st.sampled_from(MALFORMED)]
    return st.one_of(*pools, HUGE) if huge else st.one_of(*pools)


def choice(*names):
    return st.one_of(st.sampled_from(names), st.sampled_from(MALFORMED))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ("table", "expand", "eval", "enumerate", "dist", "verify", "avg-nse", "perm-stats")
    ))
    flags = {
        "table": ("--force",),
        "expand": ("--force",),
        "eval": ("--oracle",),
        "enumerate": ("--force", "--stats"),
        "dist": ("--force", "--oracle"),
        "verify": ("--force",),
        "avg-nse": ("--check",),
        "perm-stats": (),
    }[command]
    chosen = [flag for flag in flags if draw(st.booleans())]
    identity = draw(choice(*touchard.IDENTITY_NAMES, "all"))
    budgeted = "--force" not in chosen and (
        command in ("table", "expand", "enumerate", "dist", "perm-stats")
        or (command == "verify" and identity in ENUMERATING)
        or (command == "avg-nse" and "--check" in chosen)
    )
    size = sizes(budgeted)
    n = draw(size)
    k = draw(st.one_of(st.just(n), size))  # the diagonal, where k is as huge as n
    options = {
        "table": [("--name", choice(*cli._TRIANGLES, *cli._SEQUENCES, "q-product")),
                  ("--nmax", size), ("--var", choice("p", "q"))],
        "expand": [("--n", size), ("--route", choice(*touchard.ROUTES)),
                   ("--at", st.sampled_from(("x=1/2,p=2,q=3", "x=1", "x=1,x=2", "t=1", "x=")))],
        "eval": [("--n", size), ("--x", choice(*RATIONALS)), ("--p", choice(*RATIONALS)),
                 ("--q", choice(*RATIONALS))],
        "enumerate": [("--n", st.just(n)), ("--k", st.just(k)),
                      ("--flavor", choice("ssp", "lsp", "slp", "llp"))],
        "dist": [("--n", st.just(n)), ("--k", st.just(k))],
        "verify": [("--identity", st.just(identity)), ("--nmax", size)],
        "avg-nse": [("--n", size)],
        "perm-stats": [("--n", size)],
    }[command]
    options.append(("--format", choice("plain", "json", "csv")))
    argv = [command, *chosen]
    for option, values in options:
        # an option, required or not, is sometimes left out
        if draw(st.integers(0, 7)):
            argv += [option, draw(values)]
    return argv


def run_cli(argv, out: bool):
    with tempfile.TemporaryDirectory() as scratch:
        # --out, when drawn, writes into a directory of its own
        target = ["--out", str(Path(scratch) / "out.txt")] if out else []
        return subprocess.run(
            [sys.executable, "-m", "pqtouchard.cli", *argv, *target],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(argv=argvs(), out=st.booleans())
@example(argv=["dist", "--n", "2", "--k", "3000", "--force"], out=False)
@example(argv=["dist", "--n", "2", "--k", "556"], out=False)
@example(argv=["verify", "--identity", "llp-grid", "--nmax", str(10**30)], out=False)
@example(argv=["avg-nse", "--n", "1000", "--check"], out=False)
@example(argv=["eval", "--n", "1", "--x", "1e999999999", "--p", "2", "--q", "2"], out=False)
@example(argv=["enumerate", "--n", str(10**400), "--k", "1", "--flavor", "ssp"], out=True)
@example(argv=["enumerate", "--n", str(10**400), "--k", "1", "--flavor", "ssp", "--force"],
         out=False)
@example(argv=["enumerate", "--n", "2000000", "--k", "2000000", "--flavor", "lsp"], out=False)
@example(argv=["enumerate", "--n", str(10**400), "--k", str(10**400), "--flavor", "lsp"],
         out=False)
def test_every_run_ends_with_a_status(argv, out):
    result = run_cli(argv, out)
    assert result.returncode in (0, 1, 2), (argv, result.stderr[-2000:])
    assert "Traceback" not in result.stderr, (argv, result.stderr[-2000:])

"""The public API, pinned: a change to it must edit this list on purpose."""

import ast
import doctest
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pqtouchard

PUBLIC_API = (
    "EgfSeries",
    "FLAVORS",
    "IDENTITY_NAMES",
    "MultiPoly",
    "OrderedPartition",
    "ROUTES",
    "StatReport",
    "VAR_ORDER",
    "VerificationReport",
    "avg_nse",
    "bell",
    "binomial",
    "check_permutation",
    "count_partitions",
    "decompose",
    "dist_poly",
    "enumerate_partitions",
    "exp_q",
    "factorial",
    "ltr_max_count",
    "ltr_max_distribution",
    "nsb",
    "nse",
    "nse_distribution",
    "nse_perm",
    "s_pq",
    "s_uv",
    "stat_report",
    "stirling1_signed",
    "stirling1_unsigned",
    "stirling2",
    "taylor_oracle",
    "touchard_eval",
    "touchard_poly",
    "touchard_series",
    "verify_identity",
)

# the public attributes each class defines itself (EgfSeries adds none to
# list's); a member added or removed must edit these on purpose
CLASS_SURFACES = {
    "EgfSeries": (),
    "MultiPoly": (
        "const",
        "evaluate",
        "monomial_coefficient",
        "sorted_terms",
        "substitute",
        "terms",
        "to_json_obj",
        "var",
        "variables",
    ),
    "OrderedPartition": ("blocks", "from_string", "k", "n", "to_string"),
}

# the lines of src/pqtouchard/*.py, as `cat src/pqtouchard/*.py | wc -l`
# counts them: a ceiling, since src/ should shrink; a change that grows it
# must raise this number on purpose, as a new class member edits the above
SRC_LINES = 2_494


def test_public_names_are_pinned():
    assert PUBLIC_API == tuple(sorted(PUBLIC_API))
    assert sorted(pqtouchard.__all__) == list(PUBLIC_API)
    assert len(set(pqtouchard.__all__)) == len(pqtouchard.__all__)


@pytest.mark.parametrize("name", sorted(CLASS_SURFACES))
def test_class_surfaces_are_pinned(name):
    pinned = CLASS_SURFACES[name]
    assert pinned == tuple(sorted(pinned))
    cls = getattr(pqtouchard, name)
    assert tuple(sorted(a for a in vars(cls) if not a.startswith("_"))) == pinned


def test_src_lines_stay_under_the_ceiling():
    sources = Path(pqtouchard.__file__).parent.glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= SRC_LINES, f"src/ has {lines} lines, over the ceiling of {SRC_LINES}"


def test_every_public_name_resolves():
    namespace = {}
    exec("from pqtouchard import *", namespace)
    for name in PUBLIC_API:
        assert namespace[name] is getattr(pqtouchard, name)


def test_names_the_benchmark_reaches_resolve():
    # perfbench's tracer imports every layer module, and its result
    # corruption check rebuilds a series with type(result)(list(result))
    layers = ("tables", "poly", "series", "partitions", "permstats", "touchard", "cli")
    for layer in layers:
        importlib.import_module(f"pqtouchard.{layer}")
    series = pqtouchard.touchard_series(3)
    assert isinstance(series, pqtouchard.EgfSeries)
    assert type(series)(list(series)) == series
    assert callable(pqtouchard.touchard.touchard_poly.cache_info)


def test_the_one_cache_is_touchard_poly():
    # besides the number tables, the package keeps no state but this cache;
    # a new cache must be added to this list on purpose
    caches = {}
    for info in pkgutil.iter_modules(pqtouchard.__path__):
        module = importlib.import_module(f"pqtouchard.{info.name}")
        for name, value in vars(module).items():
            # a class's methods too, bound as a caller reaches them
            members = vars(value) if isinstance(value, type) else ()
            for obj in (value, *(getattr(value, m) for m in members)):
                if hasattr(obj, "cache_info"):
                    caches.setdefault(obj, f"{info.name}.{name}")
    assert list(caches) == [pqtouchard.touchard.touchard_poly], caches


def _package_trees():
    sources = sorted(Path(pqtouchard.__file__).parent.glob("*.py"))
    return [(path.stem, ast.parse(path.read_text())) for path in sources]


def _read_names(tree):
    """The names a module reads: loaded names and attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_private_helper_is_used():
    # a private module-level name that nothing in src/ reads is dead: a
    # checker or guard a consolidation left behind
    defined, used = set(), set()
    for _, tree in _package_trees():
        for node in tree.body:
            # an assignment's targets, an annotated one's target, or a def;
            # a tuple target (_a, _b = ...) binds each of its names
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            while any(isinstance(t, ast.Tuple) for t in targets):
                targets = [e for t in targets for e in getattr(t, "elts", [t])]
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", ""))
                if name.startswith("_") and not name.startswith("__"):
                    defined.add(name)
        used |= _read_names(tree)
    assert sorted(defined - used) == []


def test_no_module_imports_a_private_name_it_never_reads():
    # `from .poly import _helper` left behind after the last call to
    # _helper moved away keeps the helper looking used to the check above
    unread = []
    for module, tree in _package_trees():
        used = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name.startswith("_") and name not in used:
                        unread.append(f"{module}: {name}")
    assert unread == []


def test_readme_examples_run():
    # README's `>>>` lines are the library's first examples: each must
    # still print what README says it prints
    readme = Path(__file__).resolve().parents[1] / "README.md"
    results = doctest.testfile(str(readme), module_relative=False, encoding="utf-8")
    assert results.failed == 0 and results.attempted >= 8, results


def test_benchmark_self_test_passes():
    # perfbench's checkers read the names, types and outputs of the package;
    # its self-test runs each workload once and requires a corrupted result
    # of each kind of operation to be counted as a failure
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr

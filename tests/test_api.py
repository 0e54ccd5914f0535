"""The public API, pinned: a change to it must edit this list on purpose."""

import importlib

import pqtouchard

PUBLIC_API = (
    "EgfSeries",
    "FLAVORS",
    "IDENTITY_NAMES",
    "MultiPoly",
    "OBJECT_BUDGET",
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


def test_public_names_are_pinned():
    assert PUBLIC_API == tuple(sorted(PUBLIC_API))
    assert sorted(pqtouchard.__all__) == list(PUBLIC_API)
    assert len(set(pqtouchard.__all__)) == len(pqtouchard.__all__)


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

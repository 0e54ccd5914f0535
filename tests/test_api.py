"""The public API, pinned: a change to it must edit this list on purpose."""

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
    "egf_compose",
    "enumerate_partitions",
    "exp_q",
    "factorial",
    "ltr_max_count",
    "ltr_max_distribution",
    "nsb",
    "nse",
    "nse_distribution",
    "nse_perm",
    "ogf_binomial_power",
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

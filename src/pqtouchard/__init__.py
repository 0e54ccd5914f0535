"""Exact p,q-deformed Touchard polynomials and partition statistics.

The package computes T_n(x;p,q) by several independent routes (closed-form
sums, generating-function composition, substitution into the two-variable
distribution polynomial), enumerates the four families of block partitions
of {1..n}, and cross-checks every closed form against brute force.  All
arithmetic is exact: arbitrary-precision integers and rationals only.
"""

from .partitions import (
    FLAVORS,
    OrderedPartition,
    count_partitions,
    dist_poly,
    enumerate_partitions,
    nsb,
    nse,
)
from .permstats import (
    check_permutation,
    decompose,
    ltr_max_count,
    ltr_max_distribution,
    nse_distribution,
    nse_perm,
)
from .poly import VAR_ORDER, MultiPoly
from .series import EgfSeries
from .tables import (
    bell,
    binomial,
    factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)
from .touchard import (
    IDENTITY_NAMES,
    ROUTES,
    StatReport,
    VerificationReport,
    avg_nse,
    exp_q,
    s_pq,
    s_uv,
    stat_report,
    taylor_oracle,
    touchard_eval,
    touchard_poly,
    touchard_series,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "FLAVORS",
    "IDENTITY_NAMES",
    "ROUTES",
    "VAR_ORDER",
    "EgfSeries",
    "MultiPoly",
    "OrderedPartition",
    "StatReport",
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
]

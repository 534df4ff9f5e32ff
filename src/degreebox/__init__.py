"""Realizability of degree-interval sequences by simple graphs.

The package decides whether a pair of bound vectors (A; B) admits a
simple graph whose i-th vertex degree lies in [a_i, b_i], evaluates the
full family of classical-style necessary/sufficient inequalities for
that question, constructs witness graphs, and cross-validates everything
against brute-force enumeration on small instances.
"""

from .criteria import (
    CriteriaReport,
    CriterionVerdict,
    check_berge_necessary,
    check_berge_sufficient,
    check_bollobas,
    check_cdz,
    check_cdz_reduced,
    check_fulkerson,
    check_grunbaum,
    check_hasselbarth,
    check_ryser_interval,
    criteria_report,
)
from .errors import (
    InputError,
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NegativeEntry,
    NonIntegerEntry,
    NotGoodOrder,
    TooLarge,
    UpperExceedsMaxDegree,
)
from .oracle import (
    cross_validate,
    enumerate_instances,
    implication_matrix,
    instance_space_size,
    oracle_realizable,
    sample_instances,
)
from .realize import (
    SimpleGraph,
    graphic_vector_in_box,
    realize_pair,
    verify_witness,
)
from .sequences import (
    IntervalSequencePair,
    NormalizedInstance,
    normalize_good_order,
)

__version__ = "0.1.0"

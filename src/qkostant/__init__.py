"""Exact computation of graded partition counts, Weyl alternation sets and
weight multiplicities for the simple Lie algebras, in simple-root
coordinates over the rationals."""

from .qpoly import QPolynomial
from .rootsys import (
    LieType,
    RootSystem,
    Weight,
    build_root_system,
    cartan_matrix,
    weyl_group_order,
)
from .weyl import (
    DEFAULT_MAX_GROUP_ORDER,
    AlternationRecord,
    OrderExceededError,
    WeylElement,
    alternation_set,
    apply,
    canonical_word,
    enumerate_group,
    word_str,
)
from .partition import (
    PartitionMultiset,
    TableBudgetError,
    kostant_partition,
    partition_genfunc,
    partition_genfunc_batch,
    partition_tree_count,
    partition_tree_list,
)
from .multiplicity import (
    ExponentReport,
    MultiplicityResult,
    compute_m,
    compute_mq,
    full_group_mq,
    reference_exponents,
    verify_exponents,
)

__all__ = [
    "AlternationRecord",
    "DEFAULT_MAX_GROUP_ORDER",
    "ExponentReport",
    "LieType",
    "MultiplicityResult",
    "OrderExceededError",
    "PartitionMultiset",
    "QPolynomial",
    "RootSystem",
    "TableBudgetError",
    "Weight",
    "WeylElement",
    "alternation_set",
    "apply",
    "build_root_system",
    "canonical_word",
    "cartan_matrix",
    "compute_m",
    "compute_mq",
    "enumerate_group",
    "full_group_mq",
    "kostant_partition",
    "partition_genfunc",
    "partition_genfunc_batch",
    "partition_tree_count",
    "partition_tree_list",
    "reference_exponents",
    "verify_exponents",
    "weyl_group_order",
    "word_str",
]

__version__ = "0.1.0"

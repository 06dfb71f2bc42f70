"""Exact-arithmetic toolkit for hook-length statistics on binary trees.

Enumerates binary trees in a canonical order, computes hook lengths, and
verifies identities of the form prefactor(n) * S(n) = rhs(n), where S(n)
sums a multiplicative hook weight over all n-vertex trees, via two
independent evaluation routes: full enumeration and the root-split
convolution recurrence.
"""

from .identities import (
    BUILTIN_NAMES,
    DEFAULT_BRUTE_CAP,
    HookIdentity,
    HookWeight,
    SumTable,
    VerificationRecord,
    VerificationReport,
    eval_brute,
    eval_recurrence,
    fraction_str,
    get_identity,
    iter_verify,
    odd_binomial_sum,
    random_hook_weight,
    verify,
)
from .labelings import (
    DEFAULT_FIBER_CAP,
    DEFAULT_LABELING_CAP,
    bst_shape,
    increasing_labelings_brute,
    increasing_labelings_count,
    shape_fiber_histogram,
    verify_eq2,
)
from .trees import (
    Node,
    Tree,
    catalan,
    decode,
    encode,
    hook_lengths,
    iter_trees,
    rank,
    size,
    subtree_sizes,
    unrank,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "DEFAULT_BRUTE_CAP",
    "DEFAULT_FIBER_CAP",
    "DEFAULT_LABELING_CAP",
    "HookIdentity",
    "HookWeight",
    "Node",
    "SumTable",
    "Tree",
    "VerificationRecord",
    "VerificationReport",
    "bst_shape",
    "catalan",
    "decode",
    "encode",
    "eval_brute",
    "eval_recurrence",
    "fraction_str",
    "get_identity",
    "hook_lengths",
    "increasing_labelings_brute",
    "increasing_labelings_count",
    "iter_trees",
    "iter_verify",
    "odd_binomial_sum",
    "random_hook_weight",
    "rank",
    "shape_fiber_histogram",
    "size",
    "subtree_sizes",
    "unrank",
    "verify",
    "verify_eq2",
]

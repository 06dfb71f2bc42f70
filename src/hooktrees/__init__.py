"""Exact-arithmetic toolkit for hook-length statistics on binary trees.

Enumerates binary trees in a canonical order, computes hook lengths, and
verifies identities of the form prefactor(n) * S(n) = rhs(n), where S(n)
sums a multiplicative hook weight over all n-vertex trees, via two
independent evaluation routes: full enumeration and the root-split
convolution recurrence.  Each module's ``__all__`` is its public surface;
the package re-exports all three.
"""

from . import identities, labelings, trees
from .identities import *
from .labelings import *
from .trees import *

__version__ = "0.1.0"

__all__ = identities.__all__ + labelings.__all__ + trees.__all__

"""Increasing labelings and the permutation-to-shape fiber law.

A labeling of an n-vertex tree with 1..n is increasing when every vertex
carries a smaller label than all of its descendants.  The count per tree is
n! divided by the product of the hook lengths, always an exact integer.
Its oracle counts the same labelings from parent links alone, as the ways
to grow the tree from its root one vertex at a time.
Summed over all shapes of one size these counts partition the n!
permutations: bucketing permutations by the shape of the binary search tree
they build recovers exactly the labeling count of each shape.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import factorial, prod
from typing import Optional, Sequence

from .identities import iter_verify
from .trees import Node, Tree, _postfix, encode, subtree_sizes

DEFAULT_LABELING_CAP = 10
DEFAULT_FIBER_CAP = 8  # 8! = 40320 permutations


def increasing_labelings_count(t: Tree) -> int:
    """Number of increasing labelings: n! over the product of hook lengths."""
    if t is None:
        raise ValueError("the empty tree has no labelings")
    hooks = subtree_sizes(t)
    count, remainder = divmod(factorial(len(hooks)), prod(hooks))
    if remainder:
        raise ArithmeticError("hook product does not divide n!")
    return count


def increasing_labelings_brute(t: Tree, *, cap: int = DEFAULT_LABELING_CAP) -> int:
    """Count increasing labelings as ways to grow the tree from its root.

    Labeling vertices 1..n in increasing order adds one vertex at a time
    whose parent is already present, so the count is the number of ways to
    reach the full vertex set through order ideals (vertex sets closed
    under parents, kept as bit sets).  Uses parent links only, never hook
    lengths: the oracle for :func:`increasing_labelings_count`.  Refuses
    trees larger than cap.
    """
    if t is None:
        raise ValueError("the empty tree has no labelings")
    code = encode(t)
    n = len(code) // 2
    if n > cap:
        raise ValueError(f"tree size {n} exceeds the labeling cap {cap}")
    parent_bits: list[int] = []  # parent_bits[v]: bit of v's parent, 0 at the root

    def join(left: Optional[int], right: Optional[int]) -> int:
        vertex = len(parent_bits)
        parent_bits.append(0)
        for child in (left, right):
            if child is not None:
                parent_bits[child] = 1 << vertex
        return vertex

    _postfix(code, None, join)
    counts = {0: 1}  # ideal -> ways to reach it, all ideals of one size
    for _ in range(n):
        grown: Counter[int] = Counter()
        for ideal, count in counts.items():
            for vertex, bit in enumerate(parent_bits):
                if ideal & bit == bit and not ideal >> vertex & 1:
                    grown[ideal | 1 << vertex] += count
        counts = grown
    return counts[(1 << n) - 1]


def bst_shape(values: Sequence[int]) -> Tree:
    """Shape of the binary search tree built by inserting values in order.

    The first value becomes the root; strictly smaller values descend left,
    all others right.  Only the relative order of the values matters.
    """
    # The search tree is the Cartesian tree on keys (value, position) with
    # position as heap priority (Vuillemin 1980): one stack scan in key
    # order links the children, then nodes are built from the last
    # position to the first, since every child comes after its parent.
    # Index n stands for an absent child.
    n = len(values)
    left = [n] * n
    right = [n] * n
    stack: list[int] = []
    for i in sorted(range(n), key=values.__getitem__):  # stable: ties by position
        last = n
        while stack and stack[-1] > i:
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    nodes: list[Tree] = [None] * (n + 1)
    for i in reversed(range(n)):
        nodes[i] = Node(nodes[left[i]], nodes[right[i]])
    return nodes[0]


def shape_fiber_histogram(n: int, *, cap: int = DEFAULT_FIBER_CAP) -> dict[str, int]:
    """Bucket all n! permutations of 1..n by the code of their search-tree shape.

    The bucket of a shape has exactly increasing_labelings_count(shape)
    members, and the buckets sum to n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise ValueError(f"n={n} exceeds the fiber cap {cap}")
    histogram: Counter[str] = Counter()
    for perm in permutations(range(1, n + 1)):
        histogram[encode(bst_shape(perm))] += 1
    return dict(histogram)


def verify_eq2(n: int) -> bool:
    """Exact check that labeling counts sum to n!: the ``labelings`` identity on the brute route."""
    if n < 1:
        raise ValueError("n must be positive")
    return next(iter_verify("labelings", n, n, "brute")).passed

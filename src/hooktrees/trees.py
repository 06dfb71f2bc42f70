"""Binary trees: enumeration, hook lengths, and a canonical bit-string codec.

Trees with n vertices are ordered by the size k of the root's left subtree
(k = 0, 1, ..., n-1 ascending), then recursively by the left subtree's
position, then the right's.  This mirrors the root split used by the
convolution recurrence, so enumeration, ranking and recurrence evaluation
all share one decomposition.  ``rank`` and ``unrank`` address positions in
this order using Catalan prefix counts only; the enumeration is never
materialized.  ``_grow`` is the one writer of the order: ``iter_trees`` and
the hook census fold over its pools, which last one call, as do the C(0..n)
lists of ``rank`` and ``unrank`` (~n**2 bits).  The only memo is ``hook_histogram``.

The codec emits one '1' per vertex in preorder and one '0' per absent
child, recursing left then right; the final '0' is forced and dropped,
giving exactly 2n bits with the ballot property (every prefix has at least
as many ones as zeros).  The single vertex encodes as "10", the empty tree
as "".  Read backwards, the code is a postfix word: ``_postfix``, one scan
with a stack of finished subtrees, is the one reader of the format, and
``decode``, ``subtree_sizes``, ``rank`` and the parent links of the
labeling oracle are folds over it.

Traversals use explicit stacks throughout: tree shapes can be chains, and
call-stack recursion would cap the usable size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar

T = TypeVar("T")


@dataclass(frozen=True, slots=True, eq=False)
class Node:
    """A vertex with optional left and right children.

    The empty tree is represented by ``None``, so ``Node()`` is the single
    isolated vertex.  Instances are immutable, safe to share between trees
    and concurrent workers, and compare, hash and pickle by their code,
    without recursion at any depth.
    """

    left: Optional["Node"] = None
    right: Optional["Node"] = None

    def __eq__(self, other: object) -> bool:
        return encode(self) == encode(other) if isinstance(other, Node) else NotImplemented

    def __hash__(self) -> int:
        return hash(encode(self))

    def __repr__(self) -> str:
        return f"<tree {encode(self)}>"

    def __reduce__(self):
        return decode, (encode(self),)


Tree = Optional[Node]


def catalan(n: int) -> int:
    """Number of binary trees with n vertices: C(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def size(t: Tree) -> int:
    """Vertex count; the empty tree has size 0."""
    return len(encode(t)) // 2


def subtree_sizes(t: Tree) -> list[int]:
    """Size of the subtree rooted at each vertex, one entry per vertex.

    These are exactly the hook lengths, in no particular order.
    """
    out: list[int] = []

    def join(left: int, right: int) -> int:
        out.append(left + right + 1)
        return out[-1]

    _postfix(encode(t), 0, join)
    return out


def hook_lengths(t: Tree) -> tuple[int, ...]:
    """Sorted multiset of hook lengths of a nonempty tree.

    The hook length of a vertex is the number of its descendants, itself
    included, i.e. the size of the subtree rooted there.  The root of an
    n-vertex tree always contributes the entry n.
    """
    if t is None:
        raise ValueError("the empty tree has no hook lengths")
    return tuple(sorted(subtree_sizes(t)))


def _grow(n: int, empty: T, block: Callable[..., Iterable[T]]) -> Iterable[T]:
    # The twin of ``_postfix``: one value per n-vertex tree, in canonical
    # order.  ``block(lefts, rights, m)`` gives the values of the m-vertex
    # trees with subtrees from those two pools, left outer, right inner;
    # blocks run by left size, smallest first.  The top level is streamed.
    if n < 0:
        raise ValueError("n must be nonnegative")
    pools: list[Iterable[T]] = [[empty]]  # pools[m]: one value per m-vertex tree, in order
    for m in range(1, n + 1):
        level = chain.from_iterable(block(pools[k], pools[m - 1 - k], m) for k in range(m))
        pools.append(level if m == n else list(level))
    return pools[n]


def iter_trees(n: int) -> Iterator[Tree]:
    """Yield every binary tree with n vertices exactly once, in canonical order.

    Smaller trees are pooled for this call and shared as subtrees (nodes
    are immutable); the top level is streamed, one new root node per tree.
    """
    yield from _grow(n, None, lambda lefts, rights, m: (
        Node(left, right) for left in lefts for right in rights))


@lru_cache(maxsize=None)
def hook_histogram(n: int) -> Mapping[tuple[int, ...], int]:
    """Read-only count of n-vertex trees per sorted hook multiset; {(): 1} at n = 0.

    Built on the first call at n, then cached and shared read-only.  The
    pool loop gives one hook tuple per tree, from its subtrees' tuples plus
    its size: the tree (L, R) of size m has sorted(hooks(L) + hooks(R)) +
    (m,).  No ``Node`` is built, and no weight, sum or product of counts.
    """
    intern = {}.setdefault  # equal pooled tuples share one object

    def block(lefts, rights, m):
        hooks = (tuple(sorted(left + right)) + (m,) for left in lefts for right in rights)
        return hooks if m == n else (intern(h, h) for h in hooks)

    return MappingProxyType(Counter(_grow(n, (), block)))


def encode(t: Tree) -> str:
    """Canonical 2n-bit code of a tree; inverse of :func:`decode`."""
    bits: list[str] = []
    stack: list[Tree] = [t]
    while stack:
        node = stack.pop()
        if node is None:
            bits.append("0")
        else:
            bits.append("1")
            stack.append(node.right)
            stack.append(node.left)
    bits.pop()  # the last bit of the full preorder word is always 0
    return "".join(bits)


def _postfix(code: str, empty: T, join: Callable[[T, T], T]) -> T:
    # Fold a code bottom-up: ``empty`` stands for each absent child and
    # ``join(left, right)`` for each vertex.  Validates as ``decode`` says.
    if set(code) - {"0", "1"}:
        raise ValueError("tree code must consist of '0' and '1' only")
    # Read backwards, the full preorder word is postfix: a '0' pushes
    # ``empty``, a '1' joins the left (top) and right values below it.
    stack: list[T] = []
    for bit in reversed(code + "0"):  # restore the dropped final 0
        if bit == "0":
            stack.append(empty)
        elif len(stack) < 2:
            raise ValueError("invalid tree code: ballot property violated")
        else:
            stack.append(join(stack.pop(), stack.pop()))
    if len(stack) != 1:
        raise ValueError("invalid tree code: ballot property violated")
    return stack[0]


def decode(code: str) -> Tree:
    """Rebuild the tree from its canonical code.

    Raises ValueError when the input is not a valid code: characters other
    than '0'/'1', or a violation of the ballot property (some prefix with
    more zeros than ones, or unbalanced totals).
    """
    return _postfix(code, None, Node)


def _catalans(n: int) -> list[int]:
    # [C(0), ..., C(n)] for one call, each exactly from the one before.
    c = [1]
    for t in range(n):
        c.append(c[t] * (4 * t + 2) // (t + 2))
    return c


def rank(t: Tree) -> int:
    """Position of the tree in the canonical order of its size class."""
    # Bottom-up over (size, rank): a vertex of size n with a left subtree
    # of size k has rank offset + rank(left) * C(n-1-k) + rank(right), where
    # offset counts the trees with a smaller left subtree, from the nearer end.
    code = encode(t)
    c = _catalans(len(code) // 2)

    def join(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
        (k, i), (m, j) = left, right
        n = k + m + 1
        offset = (sum(map(mul, c[:k], reversed(c[m + 1:n]))) if k <= m else
                  c[n] - sum(map(mul, c[:m + 1], reversed(c[k:n]))))
        return n, offset + i * c[m] + j

    return _postfix(code, (0, 0), join)[1]


def unrank(n: int, i: int) -> Tree:
    """Tree at position i in the canonical order on n-vertex trees.

    Inverse of :func:`rank`.  Works from Catalan prefix counts alone, built
    for this call: about n**2 bits, freed on return (~1.2 GiB at n = 10**5).
    """
    total = catalan(n)
    if not 0 <= i < total:
        raise ValueError(f"rank {i} out of range: there are {total} trees with {n} vertices")
    c = _catalans(n)
    bits: list[str] = []
    tasks: list[tuple[int, int]] = [(n, i)]
    while tasks:
        m, j = tasks.pop()
        if m == 0:
            bits.append("0")
            continue
        bits.append("1")
        # Find the block of left-subtree size k holding j, scanning from the
        # end nearer to j; blocks are symmetric under k <-> m-1-k.
        if 2 * j < c[m]:
            k = 0
            while j >= (block := c[k] * c[m - 1 - k]):
                j -= block
                k += 1
        else:
            k, j = m, j - c[m]  # negative: counted back from the end
            while j < 0:
                k -= 1
                j += c[k] * c[m - 1 - k]
        left_index, right_index = divmod(j, c[m - 1 - k])
        tasks.append((m - 1 - k, right_index))
        tasks.append((k, left_index))
    bits.pop()
    return decode("".join(bits))

import copy
import dataclasses
import itertools
import pickle
import random
from collections import Counter, deque
from functools import lru_cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hooktrees import (
    Node,
    bst_shape,
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
from hooktrees.trees import hook_histogram

SINGLE = Node()
LEFT_CHAIN_2 = Node(Node(), None)
RIGHT_CHAIN_2 = Node(None, Node())
BALANCED_3 = Node(Node(), Node())

# The four 3-vertex trees with no branching vertex.
CHAINS_3 = [
    Node(None, Node(None, Node())),
    Node(None, Node(Node(), None)),
    Node(Node(None, Node()), None),
    Node(Node(Node(), None), None),
]

# Derived by hand from the codec rule: preorder, '1' per vertex, '0' per
# absent child, final forced '0' dropped, trees ordered by left-subtree size.
CODES_3 = ["101010", "101100", "110010", "110100", "111000"]


def leaf_count(t):
    total = 0
    queue = deque([t])
    while queue:
        node = queue.popleft()
        if node is None:
            continue
        if node.left is None and node.right is None:
            total += 1
        queue.extend((node.left, node.right))
    return total


def depth_sum(t):
    # Sum of (depth + 1) over vertices via breadth-first search; equals the
    # hook-length total by a double-counting of ancestor/descendant pairs.
    total = 0
    queue = deque([(t, 1)])
    while queue:
        node, depth = queue.popleft()
        if node is None:
            continue
        total += depth
        queue.append((node.left, depth + 1))
        queue.append((node.right, depth + 1))
    return total


def preorder_oracle(t):
    # Root first, then the right branch, then the left.  Shared subtrees
    # appear once per occurrence.
    order = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            order.append(node)
            stack.append(node.left)
            stack.append(node.right)
    return order


def subtree_sizes_oracle(t):
    # An id()-keyed pass over the reversed preorder; it never reads the code.
    sizes = {id(None): 0}
    out = []
    for node in reversed(preorder_oracle(t)):
        sizes[id(node)] = sizes[id(node.left)] + sizes[id(node.right)] + 1
        out.append(sizes[id(node)])
    return out


@lru_cache(maxsize=None)  # the closed form, memoized to keep the oracles fast
def catalan_oracle(n):
    return comb(2 * n, n) // (n + 1)


def left_block_offset(n, k):
    # Trees of size n whose left subtree is smaller than k all come first.
    # Blocks are symmetric under k <-> n-1-k, so sum from the nearer end.
    if 2 * k > n:
        return catalan_oracle(n) - left_block_offset(n, n - k)
    return sum(catalan_oracle(j) * catalan_oracle(n - 1 - j) for j in range(k))


def rank_oracle(t):
    # (size, rank) per node, keyed by id(node); None stands for every
    # absent child.
    done = {id(None): (0, 0)}
    for node in reversed(preorder_oracle(t)):
        k, left = done[id(node.left)]
        m, right = done[id(node.right)]
        n = k + m + 1
        done[id(node)] = (n, left_block_offset(n, k) + left * catalan_oracle(m) + right)
    return done[id(t)][1]


def unrank_oracle(n, i):
    # The block scan of ``unrank``, with each Catalan number from its closed
    # form in place of the per-call list.
    bits = []
    tasks = [(n, i)]
    while tasks:
        m, j = tasks.pop()
        if m == 0:
            bits.append("0")
            continue
        bits.append("1")
        if 2 * j < catalan_oracle(m):
            k = 0
            while j >= (block := catalan_oracle(k) * catalan_oracle(m - 1 - k)):
                j -= block
                k += 1
        else:
            k, j = m, j - catalan_oracle(m)
            while j < 0:
                k -= 1
                j += catalan_oracle(k) * catalan_oracle(m - 1 - k)
        left_index, right_index = divmod(j, catalan_oracle(m - 1 - k))
        tasks.append((m - 1 - k, right_index))
        tasks.append((k, left_index))
    bits.pop()
    return "".join(bits)


class TestCatalan:
    def test_small_values(self):
        assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_matches_enumeration_at_10(self):
        assert catalan(10) == 16796
        assert sum(1 for _ in iter_trees(10)) == 16796

    def test_binomial_form(self):
        for n in range(30):
            assert catalan(n) == comb(2 * n, n) // (n + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            catalan(-1)


class TestSize:
    @pytest.mark.parametrize(
        "tree,expected",
        [(None, 0), (SINGLE, 1), (Node(Node(Node(), None), None), 3), (BALANCED_3, 3)],
    )
    def test_values(self, tree, expected):
        assert size(tree) == expected


class TestHookLengths:
    @pytest.mark.parametrize("tree", CHAINS_3)
    def test_chains_on_three_vertices(self, tree):
        assert hook_lengths(tree) == (1, 2, 3)

    def test_balanced_three(self):
        assert hook_lengths(BALANCED_3) == (1, 1, 3)

    def test_single_vertex(self):
        assert hook_lengths(SINGLE) == (1,)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            hook_lengths(None)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_invariants(self, n):
        for tree in iter_trees(n):
            hooks = hook_lengths(tree)
            assert len(hooks) == n
            assert hooks.count(n) == 1
            assert all(1 <= h <= n for h in hooks)
            assert hooks.count(1) == leaf_count(tree)
            assert sum(hooks) == depth_sum(tree)

    def test_census_at_three(self):
        census = Counter(hook_lengths(t) for t in iter_trees(3))
        assert census == {(1, 2, 3): 4, (1, 1, 3): 1}


def convolution_census(n_max):
    # The root split on hook multisets: an m-vertex tree with subtrees of
    # multisets A and B has multiset sort(A + B) + (m,), so
    # cnt_m(sort(A + B) + (m,)) += cnt_k(A) * cnt_{m-1-k}(B).  Key-by-key
    # oracle for the hook-tuple census; it stays out of the brute route.
    census = [{(): 1}]
    for m in range(1, n_max + 1):
        level = Counter()
        for k in range(m):
            for a, count_a in census[k].items():
                for b, count_b in census[m - 1 - k].items():
                    level[tuple(sorted(a + b)) + (m,)] += count_a * count_b
        census.append(dict(level))
    return census


def tuple_census(n):
    # The census as its own pool loop, one hook tuple per tree: the tree
    # (L, R) of size m has sorted(hooks(L) + hooks(R)) + (m,), and equal
    # tuples share one object per level.
    pools = [[()]]
    for m in range(1, n + 1):
        level = (tuple(sorted(left + right)) + (m,)
                 for k in range(m) for left in pools[k] for right in pools[m - 1 - k])
        shared = {}
        pools.append(level if m == n else [shared.setdefault(h, h) for h in level])
    return Counter(pools[n])


class TestHookHistogram:
    @pytest.mark.parametrize("n", range(13))
    def test_census_invariants(self, n):
        histogram = hook_histogram(n)
        assert sum(histogram.values()) == catalan(n)
        # Each count is n!/prod(h) increasing labelings; together they are
        # the n! permutations.
        assert sum(c * (factorial(n) // prod(h)) for h, c in histogram.items()) == factorial(n)
        if n >= 1:
            # The Node traversal checks the census's join; both run on the
            # one pool loop, which test_matches_tuple_pool_loop checks.
            assert dict(histogram) == Counter(hook_lengths(t) for t in iter_trees(n))

    def test_empty_tree(self):
        assert hook_histogram(0) == {(): 1}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hook_histogram(-1)

    def test_distinct_multisets(self):
        assert [len(hook_histogram(n)) for n in (8, 10, 12)] == [45, 194, 863]

    @pytest.mark.parametrize("n", range(13))
    def test_matches_tuple_pool_loop(self, n):
        # Keys, counts and the order in which keys first appear.
        assert list(hook_histogram(n).items()) == list(tuple_census(n).items())

    def test_matches_convolution_key_by_key(self):
        for n, expected in enumerate(convolution_census(12)):
            assert dict(hook_histogram(n)) == expected

    def test_cached_and_read_only(self):
        histogram = hook_histogram(6)
        assert hook_histogram(6) is histogram
        with pytest.raises(TypeError):
            histogram[(1, 2, 3, 4, 5, 6)] = 1


class TestEnumeration:
    def test_empty_level(self):
        assert list(iter_trees(0)) == [None]

    @pytest.mark.parametrize("n", range(9))
    def test_counts_match_catalan(self, n):
        assert sum(1 for _ in iter_trees(n)) == catalan(n)

    def test_codes_distinct_at_8(self):
        codes = [encode(t) for t in iter_trees(8)]
        assert len(codes) == 1430
        assert len(set(codes)) == 1430

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(iter_trees(-1))

    @pytest.mark.parametrize("n", range(8))
    def test_stable_against_unrank(self, n):
        assert list(iter_trees(n)) == [unrank(n, i) for i in range(catalan(n))]


class TestCodec:
    def test_golden_codes(self):
        assert encode(None) == ""
        assert encode(SINGLE) == "10"
        assert [encode(t) for t in iter_trees(3)] == CODES_3

    def test_decode_golden(self):
        assert decode("1100") == LEFT_CHAIN_2
        assert decode("1010") == RIGHT_CHAIN_2
        assert decode("") is None
        assert decode("10") == SINGLE

    @pytest.mark.parametrize("n", range(7))
    def test_roundtrip(self, n):
        for tree in iter_trees(n):
            code = encode(tree)
            assert len(code) == 2 * n
            assert decode(code) == tree

    @pytest.mark.parametrize(
        "code",
        ["0", "1", "0101", "1001", "110", "111", "1110", "1x00", "10 0", "0011", "100110"],
    )
    def test_invalid_codes_rejected(self, code):
        with pytest.raises(ValueError):
            decode(code)

    @pytest.mark.parametrize("length", range(17))
    def test_accepts_exactly_the_codes_of_trees(self, length):
        valid = {encode(t) for t in iter_trees(length // 2)} if length % 2 == 0 else set()
        for bits in itertools.product("01", repeat=length):
            code = "".join(bits)
            if code in valid:
                assert encode(decode(code)) == code
            else:
                with pytest.raises(ValueError, match="ballot"):
                    decode(code)

    def test_ballot_property_of_codes(self):
        for tree in iter_trees(6):
            code = encode(tree)
            ones = zeros = 0
            for bit in code:
                ones += bit == "1"
                zeros += bit == "0"
                assert ones >= zeros
            assert ones == zeros == 6


class TestRankUnrank:
    def test_empty(self):
        assert unrank(0, 0) is None
        assert rank(None) == 0

    def test_last_tree_of_three(self):
        assert unrank(3, 4) == Node(Node(Node(), None), None)

    def test_roundtrip_at_five(self):
        for i in range(42):
            assert rank(unrank(5, i)) == i

    @pytest.mark.parametrize("n", range(8))
    def test_rank_follows_enumeration(self, n):
        assert [rank(t) for t in iter_trees(n)] == list(range(catalan(n)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            unrank(3, 5)
        with pytest.raises(ValueError):
            unrank(0, 1)
        with pytest.raises(ValueError):
            unrank(4, -1)

    def test_sampled_roundtrip_at_twelve(self):
        total = catalan(12)
        for i in range(0, total, 997):
            tree = unrank(12, i)
            assert rank(tree) == i
            assert decode(encode(tree)) == tree

    def test_chain_ranks_at_600(self):
        n = 600
        assert rank(decode("1" * n + "0" * n)) == catalan(n) - 1
        assert rank(decode("10" * n)) == 0

    @pytest.mark.parametrize("n", range(1, 61))
    def test_roundtrip_at_both_ends_and_middle(self, n):
        total = catalan(n)
        for i in {0, total // 2 - 1, total // 2, total - 1} - {-1}:  # -1 when n = 1
            assert rank(unrank(n, i)) == i

    def test_left_chain_at_3000(self):
        n = 3000
        code = "1" * n + "0" * n
        assert rank(decode(code)) == catalan(n) - 1
        assert encode(unrank(n, catalan(n) - 1)) == code

    def test_left_block_offset_matches_one_sided_sum(self):
        # The one-sided sum over the k smaller left subtrees is the
        # definition; the oracle sums from whichever end is nearer.
        for n in range(41):
            for k in range(n + 1):
                expected = sum(catalan(j) * catalan(n - 1 - j) for j in range(k))
                assert left_block_offset(n, k) == expected

    @pytest.mark.parametrize("n", range(10))
    def test_unrank_matches_oracle_up_to_nine(self, n):
        for i in range(catalan(n)):
            assert encode(unrank(n, i)) == unrank_oracle(n, i)

    def test_unrank_matches_oracle_on_random_pairs(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(0, 400)
            i = rng.randrange(catalan(n))
            assert encode(unrank(n, i)) == unrank_oracle(n, i)

    def test_chains_round_trip_at_ten_thousand(self):
        n = 10**4
        for code, expected in ("1" * n + "0" * n, catalan(n) - 1), ("10" * n, 0):
            assert rank(decode(code)) == expected
            assert encode(unrank(n, expected)) == code

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            unrank(-1, 0)

    def test_deep_chain_survives(self):
        # Chains exercise the explicit-stack traversals well past any
        # recursion limit a recursive implementation would hit.
        code = "1" * 5000 + "0" * 5000
        tree = decode(code)
        assert size(tree) == 5000
        assert encode(tree) == code
        assert max(subtree_sizes(tree)) == 5000


SHARED_CHILD = Node()

ORACLE_TREES = [
    Node(SHARED_CHILD, SHARED_CHILD),  # both children are one object
    decode("1" * 3000 + "0" * 3000),
    decode("10" * 3000),
    bst_shape(random.Random(3000).sample(range(3000), 3000)),
]


def assert_matches_preorder_oracle(tree):
    assert sorted(subtree_sizes(tree)) == sorted(subtree_sizes_oracle(tree))
    assert rank(tree) == rank_oracle(tree)
    assert size(tree) == len(preorder_oracle(tree))


class TestFoldsMatchPreorderOracle:
    # subtree_sizes, rank and size fold over the code; the id()-keyed
    # preorder passes are the oracle.
    @pytest.mark.parametrize("n", range(10))
    def test_every_tree_up_to_nine(self, n):
        for tree in iter_trees(n):
            assert_matches_preorder_oracle(tree)

    @pytest.mark.parametrize("tree", ORACLE_TREES, ids=["shared", "left3000", "right3000", "bst3000"])
    def test_shared_deep_and_random(self, tree):
        assert_matches_preorder_oracle(tree)


class TestPickle:
    def test_deep_chain_round_trips(self):
        tree = decode("1" * 3000 + "0" * 3000)
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree


class TestImmutability:
    def test_nodes_frozen(self):
        node = Node()
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.left = Node()


class TestNodeEquality:
    def test_deep_chains_compare_and_hash(self):
        # Separately decoded, so equality cannot short-cut on identity.
        a = decode("1" * 3000 + "0" * 3000)
        b = decode("1" * 3000 + "0" * 3000)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != decode("10" * 3000)

    def test_other_types_differ(self):
        assert Node() != None  # noqa: E711
        assert Node() != "10"

    def test_repr_is_the_code_at_any_depth(self):
        assert repr(decode("110100")) == "<tree 110100>"
        assert repr(decode("10" * 3000)) == f"<tree {'10' * 3000}>"


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unrank_rank_roundtrip_property(data):
    n = data.draw(st.integers(min_value=0, max_value=20))
    i = data.draw(st.integers(min_value=0, max_value=catalan(n) - 1))
    tree = unrank(n, i)
    assert rank(tree) == i
    assert decode(encode(tree)) == tree


@given(st.text(alphabet="01", max_size=24))
@settings(max_examples=300, deadline=None)
def test_decode_rejects_or_roundtrips(code):
    try:
        tree = decode(code)
    except ValueError:
        return
    assert encode(tree) == code


def test_random_pairs_roundtrip():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(0, 30)
        i = rng.randrange(catalan(n))
        assert rank(unrank(n, i)) == i

from itertools import permutations, product
from math import factorial, prod

import pytest

from hooktrees import (
    Node,
    bst_shape,
    catalan,
    decode,
    encode,
    increasing_labelings_brute,
    increasing_labelings_count,
    iter_trees,
    shape_fiber_histogram,
    subtree_sizes,
    verify_eq2,
)
from hooktrees import labelings

BALANCED_3 = Node(Node(), Node())
LEFT_CHAIN_3 = Node(Node(Node(), None), None)
LEFT_CHAIN_4 = Node(Node(Node(Node(), None), None), None)


def bst_shape_recursive(values):
    # Reference: insert by recursive partition around the first value.
    if not values:
        return None
    pivot, rest = values[0], values[1:]
    smaller = [v for v in rest if v < pivot]
    other = [v for v in rest if v >= pivot]
    return Node(bst_shape_recursive(smaller), bst_shape_recursive(other))


def parent_child_pairs(t):
    # Vertices are numbered in preorder; returns the (parent, child) index
    # pairs and the vertex count.
    pairs = []
    stack = [(t, -1)]
    counter = 0
    while stack:
        node, parent = stack.pop()
        if node is None:
            continue
        index = counter
        counter += 1
        if parent >= 0:
            pairs.append((parent, index))
        stack.append((node.right, index))
        stack.append((node.left, index))
    return pairs, counter


def labelings_scan(t):
    # Reference: check all n! label assignments, parent below child on
    # every edge.  The order-ideal count replaced this scan.
    pairs, n = parent_child_pairs(t)
    count = 0
    for labels in permutations(range(n)):
        for parent, child in pairs:
            if labels[parent] > labels[child]:
                break
        else:
            count += 1
    return count


class TestLabelingCount:
    def test_balanced_three(self):
        assert increasing_labelings_count(BALANCED_3) == 2

    def test_chain_three(self):
        assert increasing_labelings_count(LEFT_CHAIN_3) == 1

    def test_single_vertex(self):
        assert increasing_labelings_count(Node()) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            increasing_labelings_count(None)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_division_always_exact(self, n):
        for tree in iter_trees(n):
            assert factorial(n) % prod(subtree_sizes(tree)) == 0


class TestLabelingBrute:
    def test_balanced_three(self):
        assert increasing_labelings_brute(BALANCED_3) == 2

    def test_left_chain_four(self):
        assert increasing_labelings_brute(LEFT_CHAIN_4) == 1

    def test_single_vertex(self):
        assert increasing_labelings_brute(Node()) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            increasing_labelings_brute(None)

    def test_cap_enforced(self):
        big = Node(Node(Node(), Node()), Node(Node(), Node()))  # 7 vertices
        with pytest.raises(ValueError, match="labeling cap 5"):
            increasing_labelings_brute(big, cap=5)
        assert increasing_labelings_brute(big, cap=7) == 80

    def test_default_cap_is_ten(self):
        assert increasing_labelings_brute(decode("10" * 10)) == 1
        with pytest.raises(ValueError, match="labeling cap 10"):
            increasing_labelings_brute(decode("10" * 11))

    def test_cap_checked_before_the_tree_is_read(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("folded a tree past the cap")

        monkeypatch.setattr(labelings, "_postfix", unreachable)
        with pytest.raises(ValueError, match="tree size 4 exceeds the labeling cap 3"):
            increasing_labelings_brute(LEFT_CHAIN_4, cap=3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_formula_matches_brute(self, n):
        for tree in iter_trees(n):
            assert increasing_labelings_count(tree) == increasing_labelings_brute(tree)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_scan(self, n):
        for tree in iter_trees(n):
            assert increasing_labelings_brute(tree) == labelings_scan(tree)

    def test_past_the_scan(self):
        tree = bst_shape((11, 3, 17, 1, 8, 14, 20, 5, 9, 13, 2, 19, 6, 15, 4, 10, 18, 7, 12, 16))
        assert increasing_labelings_brute(tree, cap=20) == increasing_labelings_count(tree)


class TestBstShape:
    def test_identity_permutation_is_right_chain(self):
        assert bst_shape((1, 2, 3)) == Node(None, Node(None, Node()))

    def test_balanced_insertion(self):
        assert bst_shape((2, 1, 3)) == BALANCED_3

    def test_empty(self):
        assert bst_shape(()) is None

    def test_single(self):
        assert bst_shape((1,)) == Node()

    def test_only_relative_order_matters(self):
        assert bst_shape((20, 10, 30)) == bst_shape((2, 1, 3))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_recursive_oracle(self, n):
        for perm in permutations(range(1, n + 1)):
            assert bst_shape(perm) == bst_shape_recursive(perm)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ties_match_recursive_oracle(self, n):
        for values in product(range(1, 4), repeat=n):
            assert bst_shape(values) == bst_shape_recursive(values)

    def test_long_sorted_input_is_a_chain(self):
        n = 3000
        assert encode(bst_shape(range(1, n + 1))) == "10" * n
        assert encode(bst_shape(range(n, 0, -1))) == "1" * n + "0" * n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_shape_is_reached(self, n):
        shapes = {encode(bst_shape(p)) for p in permutations(range(1, n + 1))}
        assert shapes == {encode(t) for t in iter_trees(n)}


class TestFiberHistogram:
    def test_three(self):
        assert shape_fiber_histogram(3) == {
            "101010": 1,
            "101100": 1,
            "110010": 2,
            "110100": 1,
            "111000": 1,
        }

    def test_one(self):
        assert shape_fiber_histogram(1) == {"10": 1}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fiber_law(self, n):
        histogram = shape_fiber_histogram(n)
        assert sum(histogram.values()) == factorial(n)
        assert len(histogram) == catalan(n)
        for tree in iter_trees(n):
            assert histogram[encode(tree)] == increasing_labelings_count(tree)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="fiber cap"):
            shape_fiber_histogram(9)
        with pytest.raises(ValueError, match="fiber cap 3"):
            shape_fiber_histogram(4, cap=3)
        assert sum(shape_fiber_histogram(4, cap=4).values()) == 24

    def test_cap_message_is_one_short_line(self):
        with pytest.raises(ValueError, match="fiber cap 20000") as info:
            shape_fiber_histogram(20001, cap=20000)
        assert len(str(info.value)) < 100

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            shape_fiber_histogram(0)


class TestVerifyEq2:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_holds(self, n):
        assert verify_eq2(n) is True

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            verify_eq2(15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            verify_eq2(0)


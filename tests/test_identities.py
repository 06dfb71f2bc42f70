import pickle
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hooktrees import (
    BUILTIN_NAMES,
    HookWeight,
    SumTable,
    catalan,
    eval_brute,
    eval_recurrence,
    fraction_str,
    get_identity,
    hook_lengths,
    iter_trees,
    odd_binomial_sum,
    random_hook_weight,
    verify,
    verify_eq2,
)
from hooktrees import identities, trees


def naive_sum(weight, n):
    # Reference evaluation: one Fraction product per tree, summed in
    # enumeration order.  Deliberately unoptimized.
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for tree in iter_trees(n):
        product = Fraction(1)
        for h in hook_lengths(tree):
            product *= weight(h)
        total += product
    return total


def fraction_sum_table(weight, n):
    # Reference recurrence: S(0..n) with one Fraction multiply and add per
    # convolution term, the loop SumTable ran before it moved to integers.
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(weight(m) * sum(values[k] * values[m - 1 - k] for k in range(m)))
    return values


def signed_weight():
    # (-1)^h * (h mod 3) / (h + 2): zero at every third h, negative at odd h.
    return HookWeight("signed", lambda h: Fraction((-1) ** h * (h % 3), h + 2))


HAN4 = get_identity("han4")
HAN5 = get_identity("han5")


class TestHookWeight:
    def test_builtin_weight_values(self):
        assert HAN4.weight(1) == 1
        assert HAN4.weight(2) == Fraction(1, 4)
        assert HAN4.weight(3) == Fraction(1, 12)
        assert HAN5.weight(1) == Fraction(1, 6)
        assert HAN5.weight(2) == Fraction(1, 40)
        assert get_identity("postnikov").weight(3) == Fraction(4, 3)

    def test_repr_names_the_weight(self):
        assert repr(HAN4.weight) == "HookWeight('1/(h*2^(h-1))')"

    def test_memoized_and_pure(self):
        calls = []
        weight = HookWeight("probe", lambda h: (calls.append(h), Fraction(1, h))[1])
        assert weight(5) == weight(5) == Fraction(1, 5)
        assert calls == [5]

    def test_nonpositive_hook_rejected(self):
        with pytest.raises(ValueError):
            HAN4.weight(0)
        # A callable that accepts 0 must still be refused before it is called.
        with pytest.raises(ValueError, match="positive integers"):
            HookWeight("one", lambda h: 1)(0)

    def test_table_weight_bounds(self):
        weight = HookWeight.from_values("tiny", {1: Fraction(2, 3), 2: 1})
        assert weight(1) == Fraction(2, 3)
        assert weight(2) == 1
        with pytest.raises(ValueError):
            weight(3)

    @pytest.mark.parametrize(
        "fn,error,h",
        [
            (lambda h: Fraction(1, h - 2), "ZeroDivisionError", 2),
            (lambda h: Fraction("x", h), "TypeError", 1),
        ],
    )
    def test_callable_errors_become_value_errors(self, fn, error, h):
        weight = HookWeight("bad", fn)
        pattern = rf"'bad' raised {error} for hook length {h}"
        with pytest.raises(ValueError, match=pattern) as info:
            eval_recurrence(weight, 3)
        assert type(info.value.__cause__).__name__ == error
        with pytest.raises(ValueError, match=pattern):
            eval_brute(weight, 3)

    def test_float_values_rejected(self):
        weight = HookWeight("1/h", lambda h: 1 / h)
        with pytest.raises(ValueError, match=r"'1/h'.* hook length 2"):
            weight(2)
        with pytest.raises(ValueError, match=r"'halves'.* hook length 1"):
            HookWeight.from_values("halves", {1: 0.5})


class TestEvalBrute:
    def test_golden_example_values(self):
        assert eval_brute(HAN4.weight, 3) == Fraction(1, 6)
        assert eval_brute(HAN5.weight, 3) == Fraction(1, 5040)

    def test_empty_product(self):
        assert eval_brute(HAN4.weight, 0) == 1
        assert eval_brute(random_hook_weight(3), 0) == 1

    def test_constant_weight_counts_trees(self):
        one = get_identity("catalan").weight
        assert eval_brute(one, 5) == 42

    def test_matches_naive_reference(self):
        for name in BUILTIN_NAMES:
            weight = get_identity(name).weight
            for n in range(10):
                assert eval_brute(weight, n) == naive_sum(weight, n)
        for seed in range(10):
            weight = random_hook_weight(seed, max_h=9)
            for n in range(10):
                assert eval_brute(weight, n) == naive_sum(weight, n)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap 3"):
            eval_brute(HAN4.weight, 4, cap=3)
        assert eval_brute(HAN4.weight, 4, cap=4) == Fraction(1, 24)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            eval_brute(HAN4.weight, -1)

    def test_census_built_once_per_n(self):
        eval_brute(random_hook_weight(1, max_h=8), 8)
        builds = trees.hook_histogram.cache_info().misses
        weight = random_hook_weight(2, max_h=8)
        assert eval_brute(weight, 8) == eval_recurrence(weight, 8)
        assert verify_eq2(8)
        assert trees.hook_histogram.cache_info().misses == builds

    def test_shared_between_threads(self):
        # Four threads with their own weights start on a cold census at once.
        trees.hook_histogram.cache_clear()
        barrier = threading.Barrier(4, timeout=30)
        agreed = {}

        def check(seed):
            weight = random_hook_weight(seed, max_h=10)
            barrier.wait()
            agreed[seed] = eval_brute(weight, 10) == eval_recurrence(weight, 10)

        threads = [threading.Thread(target=check, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert agreed == {seed: True for seed in range(4)}


class TestEvalRecurrence:
    def test_golden_values(self):
        assert eval_recurrence(HAN4.weight, 10) == Fraction(1, 3628800)
        assert eval_recurrence(HAN5.weight, 1) == Fraction(1, 6)

    def test_constant_weight_reproduces_catalan(self):
        table = SumTable(get_identity("catalan").weight)
        for n in range(13):
            assert table.value(n) == catalan(n)

    def test_seed_entry(self):
        table = SumTable(HAN4.weight)
        assert table.value(0) == 1
        assert len(table) == 1

    def test_table_reuse(self):
        table = SumTable(HAN5.weight)
        first = eval_recurrence(HAN5.weight, 8, table)
        assert len(table) == 9
        assert eval_recurrence(HAN5.weight, 8, table) == first
        assert eval_recurrence(HAN5.weight, 4, table) == Fraction(1, factorial(9))

    def test_shared_between_threads(self):
        # Both threads compute entry 3 at once: each waits in the weight
        # until the other arrives, then both try to store it.
        barrier = threading.Barrier(2, timeout=10)

        def han4(h):
            if h == 3:
                barrier.wait()
            return Fraction(1, h * 2 ** (h - 1))

        table = SumTable(HookWeight("han4", han4))
        threads = [threading.Thread(target=table.value, args=(6,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
        assert not barrier.broken
        assert len(table) == 7
        assert [table.value(n) for n in range(8)] == [Fraction(1, factorial(n)) for n in range(8)]

    def test_failed_entry_leaves_table_intact(self):
        # The weight raises on its first call at h = 5 only; HookWeight
        # memoizes successes, so a retry calls it again.
        failures = []

        def flaky(h):
            if h == 5 and not failures:
                failures.append(h)
                raise ZeroDivisionError("flaky")
            return Fraction(1, h * 2 ** (h - 1))

        table = SumTable(HookWeight("flaky", flaky))
        assert table.value(4) == Fraction(1, 24)
        with pytest.raises(ValueError, match="hook length 5"):
            table.value(8)
        assert len(table) == 5
        assert table.value(8) == Fraction(1, factorial(8))
        assert [table.value(n) for n in range(9)] == [Fraction(1, factorial(n)) for n in range(9)]

    def test_failed_entry_raises_again(self):
        table = SumTable(HookWeight("bad", lambda h: Fraction(1, h - 2)))
        assert table.value(1) == -1
        for _ in range(2):
            with pytest.raises(ValueError, match="'bad' raised ZeroDivisionError"):
                table.value(3)
            assert len(table) == 2

    def test_foreign_table_rejected(self):
        with pytest.raises(ValueError):
            eval_recurrence(HAN4.weight, 3, SumTable(HAN5.weight))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eval_recurrence(HAN4.weight, -2)
        # -1 would otherwise index the table's last entry.
        table = SumTable(HAN4.weight)
        table.value(3)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            table.value(-1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            eval_recurrence(HAN4.weight, -1, table)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            eval_recurrence(HAN4.weight, -1)


class TestIntegerRecurrence:
    """SumTable's integer convolution against the Fraction loop it replaced."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        weight = get_identity(name).weight
        table = SumTable(weight)
        assert [table.value(n) for n in range(201)] == fraction_sum_table(weight, 200)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_weights(self, seed):
        weight = random_hook_weight(seed, max_h=120)
        table = SumTable(weight)
        assert [table.value(n) for n in range(121)] == fraction_sum_table(weight, 120)

    def test_signed_weight_with_zeros(self):
        weight = signed_weight()
        expected = fraction_sum_table(weight, 200)
        assert any(value == 0 for value in expected) and any(value < 0 for value in expected)
        table = SumTable(weight)
        assert [table.value(n) for n in range(201)] == expected

    def test_threads_share_one_table(self):
        # A rescale rewrites every stored numerator; four threads filling
        # one table with frequent switches must still agree with the oracle.
        weight = signed_weight()
        expected = fraction_sum_table(weight, 120)
        targets = [range(0, 121, step) for step in (1, 3, 7, 11)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                table = SumTable(weight)
                threads = [
                    threading.Thread(target=lambda ns: [table.value(n) for n in ns], args=(ns,))
                    for ns in targets
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(table) == 121
                assert [table.value(n) for n in range(121)] == expected
        finally:
            sys.setswitchinterval(interval)

    def test_no_entry_past_the_one_asked_for(self):
        # A second thread appends entry n while the first sits between its
        # length check and the entry it computes.  The pause is forced, so
        # the test does not depend on the switch interval.
        n = 10
        calls = []
        weight = HookWeight("logged", lambda h: calls.append(h) or Fraction(1, h + 1))
        table = SumTable(weight)
        table.value(n - 1)
        paused, appended = threading.Event(), threading.Event()
        worker = threading.Thread(target=table.value, args=(n,))

        class PausingList(list):
            def __len__(self):
                length = super().__len__()
                if threading.current_thread() is worker and not paused.is_set():
                    paused.set()
                    appended.wait(timeout=60)
                return length

        table._values = PausingList(table._values)
        worker.start()
        assert paused.wait(timeout=60)
        table.value(n)
        appended.set()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(table) == n + 1
        assert n + 1 not in calls
        assert [table.value(k) for k in range(n + 1)] == fraction_sum_table(weight, n)

    def test_out_of_order_queries(self):
        weight = signed_weight()
        expected = fraction_sum_table(weight, 120)
        table = SumTable(weight)
        assert table.value(50) == expected[50]
        assert table.value(10) == expected[10]
        assert len(table) == 51
        assert table.value(120) == expected[120]
        assert [table.value(n) for n in range(121)] == expected


class TestInductionStep:
    """The built-ins from their closed forms alone, by Han's expansion step.

    With f(n) = rhs(n) / prefactor(n), the identity holds for every n iff
    f(0) = 1 and w(n) = f(n) / sum_k f(k) * f(n-1-k).  Neither evaluation
    route is involved.
    """

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_weight_recovered_from_closed_form(self, name):
        identity = get_identity(name)
        f = [identity.rhs(n) / identity.prefactor(n) for n in range(151)]
        assert f[0] == 1
        for n in range(1, 151):
            split = sum(f[k] * f[n - 1 - k] for k in range(n))
            assert identity.weight(n) == f[n] / split
            if name == "han5":
                # (2n)! * split = sum_k C(2n, 2k+1)
                assert factorial(2 * n) * split == odd_binomial_sum(n)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_weights(self, seed):
        weight = random_hook_weight(seed, max_h=8)
        table = SumTable(weight)
        for n in range(9):
            assert eval_brute(weight, n) == eval_recurrence(weight, n, table)

    @given(
        numerators=st.lists(st.integers(1, 9), min_size=6, max_size=6),
        denominators=st.lists(st.integers(1, 9), min_size=6, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_small_weight(self, numerators, denominators):
        values = {
            h: Fraction(p, q)
            for h, (p, q) in enumerate(zip(numerators, denominators), start=1)
        }
        weight = HookWeight.from_values("hyp", values)
        table = SumTable(weight)
        for n in range(7):
            assert eval_brute(weight, n) == eval_recurrence(weight, n, table)


class TestBuiltins:
    def test_exactly_five(self):
        names = [get_identity(name).name for name in BUILTIN_NAMES]
        assert names == ["catalan", "labelings", "postnikov", "han4", "han5"]

    def test_lookups(self):
        assert get_identity("han5").weight(1) == Fraction(1, 6)
        assert get_identity("postnikov").rhs(3) == 16
        assert get_identity("catalan").rhs(0) == 1
        labelings = get_identity("labelings")
        assert labelings.prefactor(4) == labelings.rhs(4) == 24

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown identity"):
            get_identity("han6")

    def test_all_hold_at_zero(self):
        for identity in map(get_identity, BUILTIN_NAMES):
            assert identity.prefactor(0) * Fraction(1) == identity.rhs(0)


class TestVerify:
    def test_han4_both(self):
        report = verify("han4", 1, 8, "both")
        assert report.all_passed
        assert report.first_failure is None
        assert [record.n for record in report.records] == list(range(1, 9))

    def test_postnikov_brute_at_two(self):
        report = verify("postnikov", 2, 2, "brute")
        assert report.all_passed
        assert report.records[0].lhs == 3

    def test_catalan_recurrence(self):
        assert verify("catalan", 0, 10, "recurrence").all_passed

    def test_labelings_both(self):
        report = verify("labelings", 1, 9, "both")
        assert report.all_passed
        assert report.records[-1].lhs == factorial(9)

    def test_failure_reported_not_raised(self):
        broken = identities.HookIdentity(
            name="broken",
            weight=HAN4.weight,
            prefactor=lambda n: Fraction(1),
            rhs=lambda n: Fraction(1, factorial(n) + 1),
        )
        report = verify(broken, 1, 4, "recurrence")
        assert not report.all_passed
        failure = report.first_failure
        assert failure.n == 1
        assert failure.lhs == 1
        assert failure.rhs == Fraction(1, 2)

    def test_both_mode_detects_route_disagreement(self, monkeypatch):
        monkeypatch.setattr(identities, "eval_brute", lambda w, n, cap=None: Fraction(7))
        report = verify("han4", 2, 2, "both")
        assert not report.all_passed
        record = report.records[0]
        assert record.lhs == record.rhs == Fraction(1, 2)
        assert record.brute == 7
        assert record.recurrence == Fraction(1, 2)

    def test_brute_cap_respected(self):
        with pytest.raises(ValueError, match="brute-force cap"):
            verify("han4", 1, 5, "brute", brute_cap=3)
        # recurrence mode has no cap
        assert verify("han4", 1, 20, "recurrence", brute_cap=3).all_passed

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            verify("han4", 1, 3, "fast")
        with pytest.raises(ValueError, match="empty range"):
            verify("han4", 5, 1, "recurrence")

    def test_table_passed_in_is_filled(self):
        table = SumTable(HAN4.weight)
        assert verify("han4", 1, 50, "recurrence", table=table).all_passed
        assert len(table) == 51

    def test_range_builds_one_table(self, monkeypatch):
        built = []

        class CountingTable(SumTable):
            def __init__(self, weight):
                built.append(weight)
                super().__init__(weight)

        monkeypatch.setattr(identities, "SumTable", CountingTable)
        assert verify("han4", 1, 20, "recurrence").all_passed
        assert built == [HAN4.weight]

    def test_memoization_transparent(self):
        table = SumTable(HAN5.weight)
        interleaved = [
            verify("han5", 4, 6, "recurrence", table=table),
            verify("han5", 1, 3, "recurrence", table=table),
            verify("han5", 1, 9, "recurrence", table=table),
        ]
        fresh = verify("han5", 1, 9, "recurrence")
        assert all(report.all_passed for report in interleaved)
        assert [r.lhs for r in interleaved[2].records] == [r.lhs for r in fresh.records]


class TestReportSerialization:
    def test_pass_line_has_four_fields(self):
        record = verify("han4", 3, 3, "recurrence").records[0]
        assert record.tsv_line() == "han4\t3\trecurrence\tPASS"

    def test_fail_line_carries_both_sides(self):
        broken = identities.HookIdentity(
            name="broken",
            weight=HAN4.weight,
            prefactor=lambda n: Fraction(1),
            rhs=lambda n: Fraction(-5, 3),
        )
        record = verify(broken, 2, 2, "recurrence").records[0]
        assert record.tsv_line() == "broken\t2\trecurrence\tFAIL\t1/2\t-5/3"

    def test_route_disagreement_names_the_routes(self, monkeypatch):
        monkeypatch.setattr(identities, "eval_brute", lambda w, n, cap=None: Fraction(1, 3))
        record = next(identities.iter_verify("postnikov", 3, 3, "both"))
        assert record.tsv_line() == "postnikov\t3\tboth\tFAIL\t16/1\t16/1\t1/3\t64/3"
        assert record.row() == {
            "identity": "postnikov",
            "n": 3,
            "mode": "both",
            "status": "FAIL",
            "lhs": "16/1",
            "rhs": "16/1",
            "brute": "1/3",
            "recurrence": "64/3",
        }

    def test_json_record_keys(self):
        record = verify("han5", 2, 2, "both").records[0]
        assert record.row() == {
            "identity": "han5",
            "n": 2,
            "mode": "both",
            "status": "PASS",
            "lhs": "1/120",
            "rhs": "1/120",
        }


class TestValueClasses:
    def records(self):
        record = verify("han4", 3, 3, "recurrence").records[0]
        return [HAN4, record, verify("han4", 1, 3, "recurrence")]

    def test_fields_are_read_only(self):
        for value in self.records():
            for name in (type(value)._fields[0], "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)

    def test_equal_fields_give_equal_objects_and_hashes(self):
        for value in self.records():
            twin = type(value)(*value)
            assert twin == value and twin is not value
            assert hash(twin) == hash(value)
        record = self.records()[1]
        assert record._replace(n=4) != record

    def test_records_round_trip_through_pickle(self):
        # HookIdentity holds lambdas, which do not pickle.
        for value in self.records()[1:]:
            assert pickle.loads(pickle.dumps(value)) == value


class TestFractionStr:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(42), "42/1"),
            (Fraction(-3, 9), "-1/3"),
            (Fraction(1, 5040), "1/5040"),
            (Fraction(0), "0/1"),
        ],
    )
    def test_format(self, value, expected):
        assert fraction_str(value) == expected


class TestOddBinomialSum:
    def test_single_term(self):
        assert odd_binomial_sum(1) == 2

    def test_three(self):
        # 6 + 20 + 6, summed term by term
        assert odd_binomial_sum(3) == 32

    def test_power_of_two_contract(self):
        for n in range(1, 60):
            assert odd_binomial_sum(n) == 2 ** (2 * n - 1)
        assert odd_binomial_sum(100) == 2**199

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            odd_binomial_sum(0)


class TestRandomWeight:
    def test_deterministic(self):
        first = random_hook_weight(11, max_h=9)
        second = random_hook_weight(11, max_h=9)
        assert [first(h) for h in range(1, 10)] == [second(h) for h in range(1, 10)]

    def test_seed_zero_pinned(self):
        # perfbench draws its weights from this function; pinning one seed
        # keeps its op stream reproducible.
        weight = random_hook_weight(0)
        assert [weight(h) for h in (1, 2, 3)] == [1, Fraction(1, 5), Fraction(9, 8)]
        assert weight(16) == Fraction(9, 8)
        with pytest.raises(ValueError, match="has no value for hook length 17"):
            weight(17)

    def test_values_in_small_range(self):
        weight = random_hook_weight(5, max_h=12)
        for h in range(1, 13):
            value = weight(h)
            assert 1 <= value.numerator <= 9
            assert 1 <= value.denominator <= 9

"""Exact evaluation and verification of multiplicative hook statistics.

For a weight w mapping hook lengths to rationals, the statistic of interest
is S(n) = sum over all n-vertex binary trees of prod over vertices of
w(h_v).  The module evaluates S(n) two independent ways:

* brute force: count trees per hook tuple (a tree's is its subtrees' tuples
  plus its size) and sum count times product of weights (``eval_brute``);
* the root-split convolution S(n) = w(n) * sum_k S(k) * S(n-1-k) with
  S(0) = 1, filled bottom-up (``eval_recurrence``).  It convolves integer
  numerators over one common denominator and sums each mirrored pair of
  terms once.

Named identities of the form prefactor(n) * S(n) = rhs(n) are then checked
by exact rational equality.  Every value either route returns is an exact
Fraction; no floating point appears anywhere on an evaluation or comparison
path.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod
from numbers import Rational
from operator import mul
from typing import Callable, Iterator, Mapping, Optional, Union

from .trees import catalan, hook_histogram

DEFAULT_BRUTE_CAP = 14  # catalan(14) = 2,674,440 hook tuples, one per tree: seconds

MODES = ("brute", "recurrence", "both")


def _exact(name: str, h: int, value: object) -> Fraction:
    # A float would pass through Fraction() and make every exact comparison
    # downstream compare rounding errors instead.
    if not isinstance(value, Rational):
        raise ValueError(f"weight {name!r} gave non-rational {value!r} for hook length {h}")
    return Fraction(value)


class HookWeight:
    """A pure map from hook length (a positive integer) to an exact rational.

    Values are memoized, so a weight backed by an expensive callable is
    still cheap to sample repeatedly.  An ArithmeticError or TypeError from
    the callable becomes a ValueError that names the weight and h.
    """

    def __init__(self, name: str, fn: Callable[[int], Union[Fraction, int]]):
        self.name = name
        self._fn = fn
        self._values: dict[int, Fraction] = {}

    def __call__(self, h: int) -> Fraction:
        try:
            return self._values[h]
        except KeyError:
            pass
        if h < 1:
            raise ValueError("hook lengths are positive integers")
        try:
            raw = self._fn(h)
        except (ArithmeticError, TypeError) as exc:
            raise ValueError(
                f"weight {self.name!r} raised {type(exc).__name__} for hook length {h}: {exc}"
            ) from exc
        value = _exact(self.name, h, raw)
        self._values[h] = value
        return value

    @classmethod
    def from_values(cls, name: str, values: Mapping[int, Union[Fraction, int]]) -> "HookWeight":
        """Weight backed by a finite table; undefined hook lengths raise."""
        table = {int(h): _exact(name, h, v) for h, v in values.items()}

        def lookup(h: int) -> Fraction:
            try:
                return table[h]
            except KeyError:
                raise ValueError(f"weight {name!r} has no value for hook length {h}") from None

        return cls(name, lookup)

    def __repr__(self) -> str:
        return f"HookWeight({self.name!r})"


class SumTable:
    """Bottom-up memo of S(n) for one weight, with S(0) = 1; safe to share between threads.

    The convolution runs on integers: S(k) = _nums[k] / _den for every
    filled k, where _den is the lcm of the denominators so far.  Entry m
    costs one Fraction, w(m) * conv / _den**2, whose reduction gives both
    the stored S(m) and the factor by which _den must grow to hold it.
    """

    def __init__(self, weight: HookWeight):
        self.weight = weight
        self._values: list[Fraction] = [Fraction(1)]
        self._nums: list[int] = [1]
        self._den = 1
        self._lock = threading.Lock()

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("n must be nonnegative")
        values = self._values
        while (m := len(values)) <= n:  # one read, so m never passes n
            # The weight may block, so it runs unlocked; another thread may
            # then have appended entry m already.
            w = self.weight(m)
            with self._lock:
                if len(values) == m:
                    self._append(m, w)
        return values[n]

    def _append(self, m: int, w: Fraction) -> None:
        nums, den = self._nums, self._den
        # S(k) * S(m-1-k) pairs with its mirror term, so sum half and double.
        half = m // 2
        conv = 2 * sum(map(mul, nums[:half], reversed(nums[m - half:])))
        if m % 2:
            conv += nums[half] ** 2
        s = Fraction(w.numerator * conv, w.denominator * den * den)
        scale = s.denominator // gcd(s.denominator, den)
        if scale > 1:
            nums[:] = [num * scale for num in nums]
            den *= scale
            self._den = den
        nums.append(s.numerator * (den // s.denominator))
        self._values.append(s)

    def __len__(self) -> int:
        return len(self._values)


def eval_brute(weight: HookWeight, n: int, *, cap: int = DEFAULT_BRUTE_CAP) -> Fraction:
    """S(n) by full enumeration: sum over the hook multisets of n-vertex
    trees of tree count times product of weights.  Each tree is visited
    once as one hook tuple, built from its subtrees' tuples plus its size.

    Independent of the recurrence path by construction.  The census is
    built on the first call at n and reused read-only by later calls, so
    a new weight costs only the reduction over its keys.  At n = 0 the
    sum is the empty product, 1.
    """
    if n > cap:
        raise ValueError(f"n={n} exceeds the brute-force cap {cap}; pass a larger cap to override")
    return sum(
        count * prod(map(weight, hooks), start=Fraction(1))
        for hooks, count in hook_histogram(n).items()
    )


def eval_recurrence(weight: HookWeight, n: int, table: Optional[SumTable] = None) -> Fraction:
    """S(n) from the root-split convolution, filling the table bottom-up.

    Splitting a nonempty tree at its root leaves an ordered pair of smaller
    trees, and the root itself contributes weight(n); hence
    S(n) = weight(n) * sum_{k=0}^{n-1} S(k) * S(n-1-k).  Repeated calls
    against the same table reuse all previously filled entries.
    """
    if table is None:
        table = SumTable(weight)
    elif table.weight is not weight:
        raise ValueError("table was built for a different weight")
    return table.value(n)


@dataclass(frozen=True)
class HookIdentity:
    """A named claim: prefactor(n) * S_weight(n) = rhs(n) for all n >= 1.

    prefactor and rhs must be total on n >= 1; the built-ins also define
    n = 0, where every one of them happens to hold.
    """

    name: str
    weight: HookWeight
    prefactor: Callable[[int], Fraction]
    rhs: Callable[[int], Fraction]


def fraction_str(value: Fraction) -> str:
    """Serialize a rational as 'p/q': fully reduced, q positive, sign on p."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of checking one identity at one n.

    lhs and rhs are always the identity's two sides.  When the two routes
    disagree, brute and recurrence hold each route's S(n) and lhs is taken
    from the recurrence; otherwise both are None.
    """

    identity: str
    n: int
    mode: str
    passed: bool
    lhs: Fraction
    rhs: Fraction
    brute: Optional[Fraction] = None
    recurrence: Optional[Fraction] = None

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def tsv_line(self) -> str:
        fields = [self.identity, str(self.n), self.mode, self.status]
        if not self.passed:
            fields += [fraction_str(self.lhs), fraction_str(self.rhs)]
            if self.brute is not None:
                fields += [fraction_str(self.brute), fraction_str(self.recurrence)]
        return "\t".join(fields)

    def row(self) -> dict[str, object]:
        row = {
            "identity": self.identity,
            "n": self.n,
            "mode": self.mode,
            "status": self.status,
            "lhs": fraction_str(self.lhs),
            "rhs": fraction_str(self.rhs),
        }
        if self.brute is not None:
            row["brute"] = fraction_str(self.brute)
            row["recurrence"] = fraction_str(self.recurrence)
        return row


@dataclass(frozen=True)
class VerificationReport:
    """Per-n outcomes for one verify call."""

    records: tuple[VerificationRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(record.passed for record in self.records)

    @property
    def first_failure(self) -> Optional[VerificationRecord]:
        return next((record for record in self.records if not record.passed), None)


def _check(
    identity: HookIdentity,
    n: int,
    mode: str,
    *,
    brute_cap: int,
    table: SumTable,
) -> VerificationRecord:
    if mode in ("brute", "both"):
        s_brute = eval_brute(identity.weight, n, cap=brute_cap)
    if mode in ("recurrence", "both"):
        s_value = eval_recurrence(identity.weight, n, table)
    if mode == "brute":
        s_value = s_brute
    lhs = identity.prefactor(n) * s_value
    rhs = identity.rhs(n)
    if mode == "both" and s_brute != s_value:
        # The two evaluation routes disagreeing is itself a failure.
        return VerificationRecord(identity.name, n, mode, False, lhs, rhs, s_brute, s_value)
    return VerificationRecord(identity.name, n, mode, lhs == rhs, lhs, rhs)


def iter_verify(
    identity: Union[str, HookIdentity],
    n_from: int,
    n_to: int,
    mode: str = "both",
    *,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    table: Optional[SumTable] = None,
) -> Iterator[VerificationRecord]:
    """Stream one VerificationRecord per n in [n_from, n_to]."""
    if isinstance(identity, str):
        identity = get_identity(identity)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
    if n_from > n_to:
        raise ValueError(f"empty range: n_from={n_from} > n_to={n_to}")
    if table is None:
        table = SumTable(identity.weight)
    for n in range(n_from, n_to + 1):
        yield _check(identity, n, mode, brute_cap=brute_cap, table=table)


def verify(
    identity: Union[str, HookIdentity],
    n_from: int,
    n_to: int,
    mode: str = "both",
    *,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    table: Optional[SumTable] = None,
) -> VerificationReport:
    """Check prefactor(n) * S(n) = rhs(n) for each n in the range.

    ``mode`` selects the evaluation route; "both" additionally requires the
    two routes to agree exactly.  Failures are report content, not errors.
    """
    return VerificationReport(
        records=tuple(
            iter_verify(identity, n_from, n_to, mode, brute_cap=brute_cap, table=table)
        )
    )


def odd_binomial_sum(n: int) -> int:
    """Sum of C(2n, 2k+1) over k = 0..n-1, by direct binomial summation.

    Contract: equals 2^(2n-1), half of the full row sum of binomials.  This
    is the han5 case of the induction step behind the built-ins: with
    f(n) = 1/(2n+1)!, (2n)! * sum_k f(k) * f(n-1-k) is this sum, so
    f(n) / sum_k f(k) * f(n-1-k) = 1/((2n+1) * 2^(2n-1)) is han5's weight.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return sum(comb(2 * n, 2 * k + 1) for k in range(n))


def random_hook_weight(seed: int, max_h: int = 16) -> HookWeight:
    """Deterministic pseudo-random weight for oracle-equivalence tests.

    Assigns p/q with p, q drawn uniformly from 1..9 to every hook length up
    to max_h; larger hook lengths are undefined and raise.
    """
    rng = random.Random(seed)
    values = {h: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for h in range(1, max_h + 1)}
    return HookWeight.from_values(f"random-{seed}", values)


def _builtins() -> dict[str, HookIdentity]:
    return {
        "catalan": HookIdentity(
            name="catalan",
            weight=HookWeight("1", lambda h: Fraction(1)),
            prefactor=lambda n: Fraction(1),
            rhs=lambda n: Fraction(catalan(n)),
        ),
        "labelings": HookIdentity(
            name="labelings",
            weight=HookWeight("1/h", lambda h: Fraction(1, h)),
            prefactor=lambda n: Fraction(factorial(n)),
            rhs=lambda n: Fraction(factorial(n)),
        ),
        "postnikov": HookIdentity(
            name="postnikov",
            weight=HookWeight("1+1/h", lambda h: Fraction(h + 1, h)),
            prefactor=lambda n: Fraction(factorial(n), 2**n),
            rhs=lambda n: Fraction(n + 1) ** (n - 1),
        ),
        "han4": HookIdentity(
            name="han4",
            weight=HookWeight("1/(h*2^(h-1))", lambda h: Fraction(1, h * 2 ** (h - 1))),
            prefactor=lambda n: Fraction(1),
            rhs=lambda n: Fraction(1, factorial(n)),
        ),
        "han5": HookIdentity(
            name="han5",
            weight=HookWeight(
                "1/((2h+1)*2^(2h-1))", lambda h: Fraction(1, (2 * h + 1) * 2 ** (2 * h - 1))
            ),
            prefactor=lambda n: Fraction(1),
            rhs=lambda n: Fraction(1, factorial(2 * n + 1)),
        ),
    }


_BUILTINS = _builtins()

BUILTIN_NAMES = tuple(_BUILTINS)


def get_identity(name: str) -> HookIdentity:
    """Look up a built-in identity by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown identity {name!r}; built-ins are {', '.join(BUILTIN_NAMES)}"
        ) from None

"""Reward set functions: value oracles, a brute-force demand oracle, and
exhaustive class-membership testers."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    CapacityError,
    POS_INF,
    ZERO,
    as_fraction,
    bits_of,
    enum_cap_bits,
    submasks,
)

CLASSIFY_CAP = 12


class RewardFunction:
    """Base class; subclasses provide ``m`` and ``value(mask)``."""

    m: int

    def value(self, S: int) -> Fraction:
        raise NotImplementedError

    def _check(self, S: int) -> None:
        if not 0 <= S < (1 << self.m):
            raise ValueError(f"profile {S:#x} has bits outside the {self.m} actions")


class TableReward(RewardFunction):
    """Explicit value for every subset, indexed by bitmask."""

    def __init__(self, values: Sequence):
        size = len(values)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        self.m = size.bit_length() - 1
        self.values = tuple(as_fraction(v) for v in values)

    def value(self, S: int) -> Fraction:
        self._check(S)
        return self.values[S]


class AdditiveReward(RewardFunction):
    def __init__(self, per_action: Sequence):
        self.per_action = tuple(as_fraction(v) for v in per_action)
        self.m = len(self.per_action)

    def value(self, S: int) -> Fraction:
        self._check(S)
        return sum((self.per_action[j] for j in bits_of(S)), ZERO)


class XosReward(RewardFunction):
    """Pointwise max of nonnegative additive clauses."""

    def __init__(self, clauses: Sequence[Sequence]):
        if not clauses:
            raise ValueError("need at least one clause")
        self.clauses = tuple(tuple(as_fraction(v) for v in cl) for cl in clauses)
        self.m = len(self.clauses[0])
        for cl in self.clauses:
            if len(cl) != self.m:
                raise ValueError("clause width mismatch")
            if any(v < 0 for v in cl):
                raise ValueError("clause values must be nonnegative")

    def value(self, S: int) -> Fraction:
        self._check(S)
        return max(sum((cl[j] for j in bits_of(S)), ZERO) for cl in self.clauses)


class CoverageReward(RewardFunction):
    """Weighted coverage: each action covers a subset of a weighted universe."""

    def __init__(self, weights: Sequence, covers: Sequence[int]):
        self.weights = tuple(as_fraction(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("universe weights must be nonnegative")
        self.covers = tuple(int(c) for c in covers)
        self.m = len(self.covers)
        top = 1 << len(self.weights)
        if any(not 0 <= c < top for c in self.covers):
            raise ValueError("cover mask outside universe")

    def value(self, S: int) -> Fraction:
        self._check(S)
        covered = 0
        for j in bits_of(S):
            covered |= self.covers[j]
        return sum((self.weights[e] for e in bits_of(covered)), ZERO)


class FormulaReward(RewardFunction):
    """Closed-form rule evaluated by a callback (used by named fixtures)."""

    def __init__(self, m: int, fn: Callable[[int], Fraction]):
        self.m = m
        self.fn = fn

    def value(self, S: int) -> Fraction:
        self._check(S)
        return self.fn(S)


# ---------------------------------------------------------------------------
# demand oracle

def demand(f: RewardFunction, prices: Sequence, restrict: int | None = None,
           cap_bits: int | None = None) -> int:
    """A set maximizing f(S) - sum of prices over S, restricted to ``restrict``.

    Prices may be the +infinity sentinel (never demanded). Ties break toward
    the numerically smallest bitset. Brute force, except a closed form for
    additive rewards (take j iff f_j strictly exceeds p_j).
    """
    if restrict is None:
        restrict = (1 << f.m) - 1
    if len(prices) != f.m:
        raise ValueError("price vector width mismatch")
    for j in bits_of(restrict):
        p = prices[j]
        if p != POS_INF and p < 0:
            raise ValueError("prices must be nonnegative")
    finite = 0
    for j in bits_of(restrict):
        if prices[j] != POS_INF:
            finite |= 1 << j

    if isinstance(f, AdditiveReward):
        return sum(1 << j for j in bits_of(finite) if f.per_action[j] > prices[j])

    bits = finite.bit_count()
    cap = enum_cap_bits() if cap_bits is None else cap_bits
    if bits > cap:
        raise CapacityError(f"demand: 2^{bits} subsets exceeds enumeration cap")
    best_set, best_value = 0, ZERO
    for S in submasks(finite):
        v = f.value(S) - sum((prices[j] for j in bits_of(S)), ZERO)
        if v > best_value:
            best_set, best_value = S, v
    return best_set


# ---------------------------------------------------------------------------
# class membership

@dataclass(frozen=True)
class ClassReport:
    monotone: bool
    normalized: bool
    additive: bool
    submodular: bool
    xos: bool
    subadditive: bool
    supermodular: bool


def classify(f: RewardFunction) -> ClassReport:
    """Decide membership in the standard classes by exhaustive checking.

    XOS membership is decided per set by an exact LP (is there a nonnegative
    additive function matching f on the set and dominated by f everywhere).
    A max of nonnegative additive clauses is monotone, so XOS also requires
    monotone, which the per-set LP alone does not check.
    Gross substitutes is deliberately not tested.
    """
    m = f.m
    if m > CLASSIFY_CAP:
        raise CapacityError(f"classify: m={m} exceeds cap {CLASSIFY_CAP}")
    full = (1 << m) - 1
    table = [f.value(S) for S in range(1 << m)]

    normalized = table[0] == 0
    nonnegative = all(v >= 0 for v in table)

    monotone = True
    for S in range(1 << m):
        for j in range(m):
            if not S >> j & 1 and table[S | 1 << j] < table[S]:
                monotone = False
                break
        if not monotone:
            break

    additive = normalized and all(
        table[S] == sum((table[1 << j] for j in bits_of(S)), ZERO)
        for S in range(1 << m))

    submodular = True
    supermodular = True
    for S in range(1 << m):
        for j in range(m):
            if S >> j & 1:
                continue
            for k in range(m):
                if k == j or S >> k & 1:
                    continue
                lo = table[S | 1 << j] - table[S]
                hi = table[S | 1 << j | 1 << k] - table[S | 1 << k]
                if lo < hi:
                    submodular = False
                if lo > hi:
                    supermodular = False
        if not submodular and not supermodular:
            break

    subadditive = True
    if monotone:
        for S in range(1 << m):
            for T in submasks(full & ~S):
                if table[S] + table[T] < table[S | T]:
                    subadditive = False
                    break
            if not subadditive:
                break
    else:
        for S in range(1 << m):
            for T in range(1 << m):
                if table[S] + table[T] < table[S | T]:
                    subadditive = False
                    break
            if not subadditive:
                break

    xos = normalized and nonnegative and monotone and all(
        _xos_supporting_clause_exists(table, m, S) for S in range(1, 1 << m))

    return ClassReport(monotone=monotone, normalized=normalized, additive=additive,
                       submodular=submodular, xos=xos, subadditive=subadditive,
                       supermodular=supermodular)


def _xos_supporting_clause_exists(table, m: int, S: int) -> bool:
    """Is there a nonnegative additive a with a(S) = f(S) and a <= f pointwise?

    Clause values outside S may be taken as zero, so only variables j in S and
    constraints over subsets of S matter. Solved as max a(S) subject to
    a(T) <= f(T); feasibility then means the optimum reaches f(S).
    """
    from .solvers import LinearProgram, solve_lp

    positions = list(bits_of(S))
    k = len(positions)
    rows = []
    for T in submasks(S):
        if T == 0:
            continue
        coeffs = tuple(Fraction(1) if T >> j & 1 else ZERO for j in positions)
        rows.append((coeffs, "<=", table[T]))
    objective = tuple(Fraction(1) for _ in range(k))
    result = solve_lp(LinearProgram(objective=objective, sense="max", rows=tuple(rows)))
    return result.status == "optimal" and result.value == table[S]

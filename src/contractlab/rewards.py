"""Reward set functions: value oracles and their integer tables, a demand
oracle (closed forms for additive and XOS rewards, an exhaustive integer
search over the reward's table otherwise), and exact class-membership
testers that use the inclusions submodular => XOS => subadditive.

Each reward writes its rule once, in integers: ``value_pair(S)`` is f(S) as
a (numerator, denominator) pair, and ``value(S)`` is that pair as one
``Fraction``. Additive, XOS and coverage rewards put their weights over one
common denominator when they are built, so a read sums ints and ``table()``
fills its rows from the same ints. Additive and XOS rewards read f through
one clause kernel (additive is one clause); ``demand`` keeps them apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import countOf, index, le
from typing import Callable, Sequence

from .core import (
    ZERO,
    as_fraction,
    bits_of,
    check_enum_bits,
    check_profile_count,
    mask_of,
    over_common_denominator,
    profile_cap,
    submasks,
)


class RewardFunction:
    """Base class; subclasses provide ``m`` and ``value(mask)``, and may
    provide a faster ``value_pair(mask)``."""

    m: int

    def value(self, S: int) -> Fraction:
        raise NotImplementedError

    def value_pair(self, S: int) -> tuple:
        """f(S) as an integer pair (numerator, denominator), the denominator
        positive, not always in lowest terms. This fallback reads ``value``."""
        return self.value(S).as_integer_ratio()

    def table(self, mask: int | None = None, base: int = 0) -> list:
        """f(base | T) for every T in ``submasks(mask)``, in that order, as
        (numerator, denominator) pairs with positive denominators, not always
        in lowest terms.

        With no arguments this is f over all 2^m profiles, indexed by
        bitmask. ``mask`` and ``base`` must be disjoint profiles (ValueError
        otherwise). The caller bounds 2^|mask|: the PNE searches, the LPs
        and ``classify`` check the profile cap first, ``demand`` asks for
        blocks within the profile cap. This fallback calls
        ``value_pair`` once per profile. Additive, coverage and XOS rewards
        fill the table from their weights over one common denominator, in
        integers, one add per profile, each from the profile without its
        highest action of ``mask``, starting from base's sum (or cover); a
        table reward returns its stored values, each over its own
        denominator (one lcm over 2^m arbitrary values can run to thousands
        of digits).
        """
        pair = self.value_pair
        return [pair(base | T) for T in submasks(self._cube(mask, base))]

    def _cube(self, mask, base) -> int:
        """``mask`` (all m actions if None) after checking that it and base
        are disjoint profiles."""
        if mask is None:
            mask = (1 << self.m) - 1
        self._check(mask)
        self._check(base)
        if mask & base:
            raise ValueError(f"table mask {mask:#x} overlaps base {base:#x}")
        return mask

    def _check(self, S: int) -> None:
        if S < 0 or S >> self.m:
            raise ValueError(f"profile {S:#x} has bits outside the {self.m} actions")


def _subset_sums(weights, start=0) -> list:
    """start + sum(weights[t] for t in k) for every bitmask k over the
    positions of ``weights``, by doubling."""
    sums = [start]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


class TableReward(RewardFunction):
    """Explicit value for every subset, indexed by bitmask."""

    def __init__(self, values: Sequence):
        size = len(values)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        self.m = size.bit_length() - 1
        # ints, their types counted at C speed, skip as_fraction's checks
        if countOf(map(type, values), int) == size:
            self.values = tuple(map(Fraction, values))
        else:
            self.values = tuple(as_fraction(v) for v in values)

    def value(self, S: int) -> Fraction:
        self._check(S)
        return self.values[S]

    def value_pair(self, S: int) -> tuple:
        self._check(S)
        v = self.values[S]
        return v.numerator, v.denominator

    def table(self, mask: int | None = None, base: int = 0) -> list:
        if mask is None and not base:
            return [(v.numerator, v.denominator) for v in self.values]
        values = self.values
        return [(v.numerator, v.denominator)
                for v in (values[base | T] for T in submasks(self._cube(mask, base)))]


class _ClauseReward(RewardFunction):
    """f(S) = max over ``_clauses`` (ints over ``_den``) of its sum over S; an
    additive reward is one clause, its weights of either sign."""

    def value(self, S: int) -> Fraction:
        return Fraction(*self.value_pair(S))

    def value_pair(self, S: int) -> tuple:
        self._check(S)
        positions = list(bits_of(S))
        return max([sum(map(clause.__getitem__, positions))
                    for clause in self._clauses]), self._den

    def table(self, mask: int | None = None, base: int = 0) -> list:
        """One running sum per clause, and their max at each profile."""
        den, best = self._den, None
        positions = list(bits_of(self._cube(mask, base)))
        for clause in self._clauses:
            sums = _subset_sums([clause[j] for j in positions],
                                sum(clause[j] for j in bits_of(base)))
            best = sums if best is None else list(map(max, best, sums))
        return [(s, den) for s in best]


class AdditiveReward(_ClauseReward):
    def __init__(self, per_action: Sequence):
        self.per_action = tuple(as_fraction(v) for v in per_action)
        self.m = len(self.per_action)
        weights, self._den = over_common_denominator(self.per_action)
        self._clauses = [weights]


class XosReward(_ClauseReward):
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
        flat, self._den = over_common_denominator(
            [v for cl in self.clauses for v in cl])
        m = self.m
        self._clauses = [flat[k * m:(k + 1) * m] for k in range(len(self.clauses))]


class CoverageReward(RewardFunction):
    """Weighted coverage: each action covers a subset of a weighted universe."""

    def __init__(self, weights: Sequence, covers: Sequence[int]):
        self.weights = tuple(as_fraction(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("universe weights must be nonnegative")
        self.covers = tuple(map(index, covers))  # TypeError on a float cover
        self.m = len(self.covers)
        top = 1 << len(self.weights)
        if any(not 0 <= c < top for c in self.covers):
            raise ValueError("cover mask outside universe")
        self._weights, self._den = over_common_denominator(self.weights)

    def value(self, S: int) -> Fraction:
        return Fraction(*self.value_pair(S))

    def value_pair(self, S: int) -> tuple:
        self._check(S)
        covers, weights = self.covers, self._weights
        covered = 0
        for j in bits_of(S):
            covered |= covers[j]
        return sum(weights[e] for e in bits_of(covered)), self._den

    def table(self, mask: int | None = None, base: int = 0) -> list:
        """Adding an action ORs its cover into the profile's and adds the
        weight of only the newly covered elements."""
        weights, den = self._weights, self._den
        positions = list(bits_of(self._cube(mask, base)))
        start = 0
        for j in bits_of(base):
            start |= self.covers[j]
        gain = {}  # newly covered elements -> their weight
        covered = [start]
        sums = [sum(weights[e] for e in bits_of(start))]
        for cover in map(self.covers.__getitem__, positions):
            grown = []
            for c, s in zip(covered, sums):
                new = cover & ~c
                w = gain.get(new)
                if w is None:
                    w = gain[new] = sum(weights[e] for e in bits_of(new))
                grown.append(s + w)
            covered += [c | cover for c in covered]
            sums += grown
        return [(s, den) for s in sums]


class FormulaReward(RewardFunction):
    """Closed-form rule evaluated by a callback (used by named fixtures).

    The callback must return an exact rational, an ``int`` or a
    ``Fraction``; anything else, a float included, is a TypeError on read.
    It must also be a pure function of S: an ``Instance`` keeps tables read
    from its reward, so a callback whose answers change is not read again.
    """

    def __init__(self, m: int, fn: Callable[[int], Fraction]):
        self.m = m
        self.fn = fn

    def value(self, S: int) -> Fraction:
        self._check(S)
        v = self.fn(S)
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"formula reward returned a {type(v).__name__} "
                            f"({v!r}) at profile {S:#x}, not an int or Fraction")
        return v


class CountReward(FormulaReward):
    """f(S) = g(|S & o| for o in orbits): f reads only how many actions of
    each orbit S holds, so the actions of one orbit are interchangeable by
    construction, never by declaration.

    ``orbits`` are masks that partition the m actions, none of them empty
    (ValueError otherwise). g takes the counts as positional ints, in orbit
    order, and returns f like a formula reward's callback: an int or a
    ``Fraction``, or a TypeError on read. ``orbit_of[j]`` is the index of
    action j's orbit; ``equilibria.regret_rows`` reads it to write the rows
    of interchangeable agents once.
    """

    def __init__(self, m: int, orbits: Sequence[int], g: Callable[..., Fraction]):
        self.orbits = orbits = tuple(map(index, orbits))
        orbit_of = [None] * m
        for k, orbit in enumerate(orbits):
            if orbit <= 0 or orbit >> m:
                raise ValueError(f"orbit {k} ({orbit:#x}) is empty or has bits "
                                 f"outside the {m} actions")
            for j in bits_of(orbit):
                if orbit_of[j] is not None:
                    raise ValueError(f"action {j} is in orbits {orbit_of[j]} and {k}")
                orbit_of[j] = k
        if None in orbit_of:
            raise ValueError(f"action {orbit_of.index(None)} is in no orbit")
        self.orbit_of = tuple(orbit_of)
        self.g = g
        super().__init__(m, lambda S: g(*[(S & o).bit_count() for o in orbits]))


# ---------------------------------------------------------------------------
# demand oracle

def demand(f: RewardFunction, prices: Sequence, restrict: int | None = None) -> int:
    """A set maximizing f(S) - sum of prices over S, among subsets of ``restrict``.

    ``restrict`` is a bitmask of the actions that may be demanded, all m of
    them by default (ValueError if it is negative or has a bit at or above
    m). Prices on restrict must be nonnegative rationals (Fraction or int);
    prices outside it are not read, so an action that must never be demanded
    is left out of restrict. Ties break toward the numerically smallest
    bitset.

    Additive and XOS rewards take a closed form. Additive: take j iff f_j
    strictly exceeds p_j. XOS, with clauses w_k: the maximum is
    max_k sum_j max(0, w_kj - p_j), reached by S_k = {j : w_kj > p_j}. Every
    maximizer is an attaining S_k plus actions of zero surplus, so the
    smallest attaining S_k is the smallest maximizer. Any other reward is
    searched over every subset of restrict (within the enumeration cap),
    starting from the empty set at its own value f(empty set), in integers:
    f comes from the reward's table as (numerator, denominator) pairs, the
    prices are put over their lcm and summed by doubling, and a set beats
    the best so far by cross-multiplication. The table is read in blocks
    that keep memory within the profile cap: the lowest actions of restrict,
    as many as the cap allows (at least one profile), span one block
    ``f.table(low, H)``, and each subset H of the other actions, in
    increasing order, starts one. That visits the sets in increasing
    numeric order, so the first maximizer found is the smallest.
    """
    if restrict is None:
        restrict = (1 << f.m) - 1
    elif not 0 <= restrict < 1 << f.m:
        raise ValueError(f"restrict {restrict:#x} has bits outside the {f.m} actions")
    if len(prices) != f.m:
        raise ValueError("price vector width mismatch")
    for j in bits_of(restrict):
        p = prices[j]
        if not isinstance(p, (Fraction, int)):
            raise ValueError(f"price {p!r} of action {j} is not an exact rational")
        if p < 0:
            raise ValueError("prices must be nonnegative")

    if isinstance(f, AdditiveReward):
        return sum(1 << j for j in bits_of(restrict) if f.per_action[j] > prices[j])

    if isinstance(f, XosReward):
        positions = list(bits_of(restrict))
        best_set, best_surplus = 0, ZERO
        for clause in f.clauses:
            S, surplus = 0, ZERO
            for j in positions:
                if clause[j] > prices[j]:
                    S |= 1 << j
                    surplus += clause[j] - prices[j]
            if surplus > best_surplus or surplus == best_surplus and S < best_set:
                best_set, best_surplus = S, surplus
        return best_set

    check_enum_bits(restrict.bit_count(), "demand")
    positions = list(bits_of(restrict))
    price, price_den = over_common_denominator([prices[j] for j in positions])
    low = min(len(positions), max(profile_cap().bit_length() - 1, 0))
    low_mask = mask_of(positions[:low])
    low_prices = _subset_sums(price[:low])  # in the order of submasks(low_mask)
    high = dict(zip(positions[low:], price[low:]))
    best_set, best_num, best_den = None, 0, 1
    for H in submasks(restrict ^ low_mask):
        spent = sum(high[j] for j in bits_of(H))
        # f(S) - p(S) = (n * price_den - paid * d) / (d * price_den): every
        # set shares price_den > 0, so sets compare by numerator over d
        for T, (n, d), paid in zip(submasks(low_mask), f.table(low_mask, H), low_prices):
            num = n * price_den - (spent + paid) * d
            if best_set is None or num * best_den > best_num * d:
                best_set, best_num, best_den = H | T, num, d
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
    """Decide membership in the standard classes, exactly, over f's table.

    Monotone, additive, submodular and supermodular are local tests: each
    action added to each S; f(S) = f(S minus its lowest action) + f(that
    action) on normalized f; one marginal inequality per S and unordered
    pair {j, k} outside S. That is O(m^2 2^m) comparisons.

    XOS asks, for each set S, for a supporting clause: a nonnegative
    additive function matching f on S and dominated by f everywhere; it
    also requires normalized, monotone f, which the per-set test alone does
    not check. The chain submodular => XOS => subadditive (Lehmann, Lehmann
    and Nisan 2006) is used, not proved again set by set: the chain of
    marginals supports every S of a normalized, monotone, submodular f, and
    the clause supporting S | T gives f(S | T) <= f(S) + f(T). Otherwise an
    ``XosReward``'s own clauses are each checked for dominance once over
    all 2^m profiles, O(k 2^m) for k clauses, and each S tries a dominated
    clause attaining f(S), the chain of marginals of S and an exact LP, in
    that order. A reward not found XOS is tested for subadditivity over
    every pair of sets (disjoint pairs when f is monotone).

    Gross substitutes is deliberately not tested. The 2^m profiles must be
    within the profile cap (``CONTRACTLAB_CAP``), or CapacityError is
    raised.
    """
    m = f.m
    check_profile_count(1 << m, "classify")
    full = (1 << m) - 1
    # every test below compares sums of values, so f (and an XOS reward's
    # clauses) times the lcm of their denominators gives the same verdicts
    # in int arithmetic; an XOS table is over its clauses' denominator
    pairs = f.table()
    scale = lcm(*{d for _, d in pairs})
    table = [n * (scale // d) for n, d in pairs]
    clauses = f._clauses if isinstance(f, XosReward) else ()

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
        table[S] == table[S & (S - 1)] + table[S & -S] for S in range(1, 1 << m))

    submodular = True
    supermodular = True
    for S in range(1 << m):
        outside = [1 << j for j in range(m) if not S >> j & 1]
        for at, J in enumerate(outside):
            lo = table[S | J] - table[S]
            for K in outside[at + 1:]:
                # the same inequality as the (k, j) row, sides swapped
                hi = table[S | J | K] - table[S | K]
                if lo < hi:
                    submodular = False
                elif lo > hi:
                    supermodular = False
        if not submodular and not supermodular:
            break

    xos = normalized and nonnegative and monotone and _every_set_supported(
        table, m, clauses, submodular)

    # for monotone f, disjoint T suffice: f(S | T) <= f(S) + f(T \ S) <= f(S) + f(T)
    subadditive = xos or all(
        table[S] + table[T] >= table[S | T]
        for S in range(1 << m)
        for T in (submasks(full & ~S) if monotone else range(1 << m)))

    return ClassReport(monotone=monotone, normalized=normalized, additive=additive,
                       submodular=submodular, xos=xos, subadditive=subadditive,
                       supermodular=supermodular)


def _every_set_supported(table, m: int, clauses, submodular: bool) -> bool:
    """Does every nonempty S have a supporting clause, for normalized,
    monotone f?

    Submodular f always does (the chain of marginals of each S supports
    it), so nothing is checked. Otherwise each of ``clauses`` (an XOS
    reward's own, on the table's scale; none for any other reward) is
    summed over all 2^m profiles once, and kept when f dominates it: a kept
    clause supports every S where its sum equals f(S). One running max holds
    the kept sums, -1 where there is none (below every value of f). Each S
    then tries that max, the chain of marginals of S, and an exact LP.
    """
    if submodular:
        return True
    attained = [-1] * len(table)
    for clause in clauses:
        sums = _subset_sums(clause)
        if all(map(le, sums, table)):
            attained = list(map(max, attained, sums))
    return all(attained[S] == table[S]
               or _marginal_chain_supports(table, S)
               or _xos_supporting_clause_exists(table, m, S)
               for S in range(1, len(table)))


def _marginal_chain_supports(table, S: int) -> bool:
    """Is the chain of marginals of S, in index order, a supporting clause of S?

    a_j = f(P + j) - f(P) over the prefix P of S below j. For a monotone,
    normalized f, a >= 0 and a(S) = f(S), so a supports S exactly when it
    is dominated by f on S. It always is for submodular f.
    """
    chain = {}
    prefix = 0
    for j in bits_of(S):
        chain[j] = table[prefix | 1 << j] - table[prefix]
        prefix |= 1 << j
    return _dominated(table, S, chain)


def _dominated(table, S: int, clause) -> bool:
    """Is clause(T) = sum of clause[j] over T at most f(T) for every T within S?"""
    masks, sums = [0], [0]
    for j in bits_of(S):
        bit, weight = 1 << j, clause[j]
        grown = [T | bit for T in masks]
        grown_sums = [total + weight for total in sums]
        if any(total > table[T] for T, total in zip(grown, grown_sums)):
            return False
        masks += grown
        sums += grown_sums
    return True


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
        coeffs = tuple(T >> j & 1 for j in positions)
        rows.append((coeffs, "<=", table[T]))
    objective = (1,) * k
    result = solve_lp(LinearProgram(objective=objective, sense="max", rows=tuple(rows)))
    return result.status == "optimal" and result.value == table[S]

"""Model primitives: instances, action profiles, contracts, utilities, potential.

Action profiles are plain int bitsets over global action ids 0..m-1.
All numeric quantities are exact rationals (fractions.Fraction); costs are
also held as integers over one common denominator (``Instance.cost_den``).
Every decision is exact: ``potential`` returns None for its -infinity
case.
"""
from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import countOf
from typing import Iterator, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_ENUM_CAP_BITS = 24
DEFAULT_PROFILE_CAP = 4096


class CapacityError(Exception):
    """A brute-force enumeration would exceed the configured cap."""


# the last CONTRACTLAB_CAP value parsed (None when unset) and its caps
_parsed_caps = (None, (DEFAULT_ENUM_CAP_BITS, DEFAULT_PROFILE_CAP))


def _caps() -> tuple:
    """(enumeration bits, profile count) from CONTRACTLAB_CAP="bits[,profiles]".

    The variable is read on every call and parsed only when it differs from
    the last value parsed, so a change binds at the next check. A malformed
    value is never kept: it raises ValueError on every call.
    """
    global _parsed_caps
    raw = os.environ.get("CONTRACTLAB_CAP")
    last_raw, last_caps = _parsed_caps  # one read: another thread may set it
    if raw == last_raw:
        return last_caps
    caps = [DEFAULT_ENUM_CAP_BITS, DEFAULT_PROFILE_CAP]
    if raw:
        parts = raw.split(",")
        if len(parts) > 2 or not all(p.strip().isdecimal() for p in parts):
            raise ValueError(f"CONTRACTLAB_CAP={raw!r} is not 'bits[,profiles]' "
                             f"with nonnegative integers")
        caps[:len(parts)] = [int(p) for p in parts]
    caps = tuple(caps)
    _parsed_caps = (raw, caps)
    return caps


def enum_cap_bits() -> int:
    return _caps()[0]


def profile_cap() -> int:
    return _caps()[1]


def check_enum_bits(bits: int, what: str) -> None:
    if bits > enum_cap_bits():
        raise CapacityError(f"{what}: 2^{bits} subsets exceeds enumeration cap")


def check_profile_count(count: int, what: str) -> None:
    if count > profile_cap():
        raise CapacityError(f"{what}: {count} profiles exceeds profile cap")


# the decimal exponent of a rational string, as Fraction reads it
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def int_digit_limit() -> int:
    """``sys.get_int_max_str_digits()``; 0 (none) on Pythons before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' / decimal strings to an exact rational.

    ``Fraction`` multiplies by 10**exp for a decimal exponent, in time and
    memory that grow faster than |exp|, so a string whose exponent is above
    the integer-digit limit (``int_digit_limit``) raises ValueError before
    it gets there.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exp = _EXPONENT.search(x)
        limit = int_digit_limit()
        if exp and limit:
            digits = exp.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise ValueError(f"exponent above the integer-digit limit {limit}")
        return Fraction(x.strip())
    if isinstance(x, float):
        raise TypeError(f"refusing inexact float {x!r}; pass a string or Fraction")
    raise TypeError(f"cannot interpret {x!r} as a rational")


def over_common_denominator(values) -> tuple:
    """``values`` (a sequence of Fractions or ints) times the lcm of their
    denominators, as ints, and that lcm. Values that are all ints come back
    as they are, not copied, with denominator 1; the types are counted at C
    speed, and a bool is not an int here, so it comes back as 0 or 1 in a new
    list. Raises TypeError on any other value, an inexact float included."""
    if countOf(map(type, values), int) == len(values):
        return values, 1
    try:
        den = lcm(*[v.denominator for v in values])
    except AttributeError:
        bad = next(v for v in values if not isinstance(v, (int, Fraction)))
        kind = "inexact float" if isinstance(bad, float) else "non-rational"
        raise TypeError(f"refusing {kind} {bad!r}; pass an int or Fraction") from None
    return [v.numerator * (den // v.denominator) for v in values], den


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# bitset helpers

def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    value = 0
    for j in indices:
        value |= 1 << j
    return value


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in increasing numeric order (empty set first),
    lazily: the next one after ``sub`` is ``(sub - mask) & mask``, which adds
    one to ``sub`` as if the bits outside ``mask`` were not there."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Instance:
    """A multi-agent contract instance.

    ``owners[j]`` is the agent owning global action j; owners must be
    non-decreasing so action ids are numbered in agent order. ``reward`` is a
    ``rewards.RewardFunction``: it exposes ``m``, ``value(mask) -> Fraction``,
    ``value_pair(mask)`` (f as an integer pair) and ``table()``.

    An instance keeps what it derives from its costs and reward: the costs
    over one denominator, each agent's slice costs (``slice_costs``), and two
    things of ``solvers``, each built on its first read: the PNE table, and
    for each equilibrium concept the last contract's LP (its rows, the
    reward's table and the feasible region after the crash). So the reward
    must be a pure function of the profile, and ``dataclasses.replace``
    builds a new instance with tables of its own.
    """

    n: int
    owners: tuple
    costs: tuple
    reward: object

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        if len(self.owners) != len(self.costs):
            raise ValueError("owners and costs length mismatch")
        masks = [0] * self.n
        prev = 0
        for j, owner in enumerate(self.owners):
            if not 0 <= owner < self.n:
                raise ValueError(f"action {j} has invalid owner {owner}")
            if owner < prev:
                raise ValueError("action ids must be numbered in agent order")
            prev = owner
            masks[owner] |= 1 << j
        for c in self.costs:
            if not isinstance(c, Fraction) or c < 0:
                raise ValueError("costs must be nonnegative rationals")
        if getattr(self.reward, "m", None) != self.m:
            raise ValueError("reward function arity does not match action count")
        object.__setattr__(self, "_agent_masks", tuple(masks))
        # costs as integers over one common denominator, so that a slice's
        # cost is one exact integer sum
        nums, den = over_common_denominator(self.costs)
        object.__setattr__(self, "cost_den", den)
        object.__setattr__(self, "_cost_nums", tuple(nums))
        # each agent's (shift, slice costs), filled on first read by slice_costs
        object.__setattr__(self, "_slice_costs", [None] * self.n)
        # the rows of solvers' PNE table, filled on first read by _pne_rows
        object.__setattr__(self, "_pne_cache", None)
        # solvers' equilibrium LPs: concept -> (contract, table, region)
        object.__setattr__(self, "_lp_cache", {})

    @property
    def m(self) -> int:
        return len(self.owners)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @property
    def binary(self) -> bool:
        return self.n == self.m and all(m.bit_count() == 1 for m in self._agent_masks)

    def agent_mask(self, i: int) -> int:
        return self._agent_masks[i]

    def slice(self, S: int, i: int) -> int:
        return S & self._agent_masks[i]

    def cost_numerator(self, mask: int) -> int:
        """c(mask) * cost_den, an exact integer."""
        nums = self._cost_nums
        return sum(nums[j] for j in bits_of(mask))

    def slice_costs(self, i: int) -> tuple:
        """(shift, costs): ``costs[T >> shift]`` is c(T) * cost_den for every
        slice T of agent i, whose actions are consecutive from action
        ``shift``, so the costs come in ``submasks`` order. Built on the
        agent's first read and kept; it has 2^|A_i| entries, which the caller
        bounds first, as it does before it enumerates the agent's slices."""
        kept = self._slice_costs[i]
        if kept is None:
            mask = self._agent_masks[i]
            nums = self._cost_nums
            costs = [0]
            for j in bits_of(mask):  # doubling: bit b of an index is action shift + b
                costs += [c + nums[j] for c in costs]
            kept = ((mask & -mask).bit_length() - 1 if mask else 0, tuple(costs))
            self._slice_costs[i] = kept
        return kept

    def cost(self, mask: int) -> Fraction:
        return Fraction(self.cost_numerator(mask), self.cost_den)

    def check_profile(self, S: int) -> None:
        if not 0 <= S <= self.full_mask:
            raise ValueError(f"profile {S:#x} has bits outside the {self.m} actions")

    def check_contract(self, a: "Contract") -> None:
        if len(a) != self.n:
            raise ValueError(f"contract has {len(a)} shares for {self.n} agents")


def make_instance(agent_actions: Sequence[Sequence], reward) -> Instance:
    """Build an Instance from per-agent cost lists, in agent order."""
    owners, costs = [], []
    for i, agent in enumerate(agent_actions):
        for c in agent:
            owners.append(i)
            costs.append(as_fraction(c))
    return Instance(n=len(agent_actions), owners=tuple(owners), costs=tuple(costs),
                    reward=reward)


@dataclass(frozen=True)
class Contract:
    """Per-agent reward shares alpha_i in [0, 1].

    The total may exceed 1; the principal's utility is then negative.
    """

    alpha: tuple

    def __post_init__(self):
        for a in self.alpha:
            if not isinstance(a, Fraction):
                raise TypeError(f"share {a!r} is a {type(a).__name__}, not a Fraction;"
                                " Contract.of coerces ints and strings")
            # a Fraction's denominator is positive: 0 <= a <= 1 in integers
            if not 0 <= a.numerator <= a.denominator:
                raise ValueError(f"share {a!r} outside [0, 1]")

    @classmethod
    def of(cls, values) -> "Contract":
        return cls(tuple(as_fraction(v) for v in values))

    @classmethod
    def zero(cls, n: int) -> "Contract":
        return cls((ZERO,) * n)

    def __getitem__(self, i: int) -> Fraction:
        return self.alpha[i]

    def __len__(self) -> int:
        return len(self.alpha)

    def total(self) -> Fraction:
        return sum(self.alpha, ZERO)

    def replace(self, i: int, value: Fraction) -> "Contract":
        parts = list(self.alpha)
        parts[i] = value
        return Contract(tuple(parts))


# ---------------------------------------------------------------------------
# operations

def agent_utility(inst: Instance, S: int, a: Contract, i: int) -> Fraction:
    """alpha_i * f(S) - c(S_i)."""
    if not 0 <= i < inst.n:
        raise ValueError(f"invalid agent id {i}")
    inst.check_contract(a)
    inst.check_profile(S)
    return a[i] * inst.reward.value(S) - inst.cost(inst.slice(S, i))


def principal_utility(inst: Instance, S: int, a: Contract) -> Fraction:
    """(1 - sum_i alpha_i) * f(S)."""
    inst.check_contract(a)
    inst.check_profile(S)
    return (ONE - a.total()) * inst.reward.value(S)


def welfare(inst: Instance, S: int) -> Fraction:
    """f(S) - c(S)."""
    inst.check_profile(S)
    return inst.reward.value(S) - inst.cost(S)


def potential(inst: Instance, S: int, a: Contract) -> Optional[Fraction]:
    """Weighted potential f(S) - sum_i c(S_i)/alpha_i.

    A zero-cost slice contributes 0 even at alpha_i = 0; a costly slice at
    alpha_i = 0 makes the whole potential -infinity, returned as None.
    """
    inst.check_contract(a)
    inst.check_profile(S)
    total = inst.reward.value(S)
    for i in range(inst.n):
        ci = inst.cost(inst.slice(S, i))
        if ci == 0:
            continue
        if a[i] == 0:
            return None
        total -= ci / a[i]
    return total

"""The integer value oracle ``RewardFunction.value_pair`` against f summed in
``Fraction``s from each reward's own stored weights, and against its table;
``FormulaReward`` refusing a callback value that is not exact."""
import random
from fractions import Fraction as F

import pytest

from contractlab.core import Contract, agent_utility, bits_of, make_instance
from contractlab.equilibria import is_pne
from contractlab.fixtures import random_instance, subadditive_gap_instance
from contractlab.rewards import (
    AdditiveReward,
    CoverageReward,
    FormulaReward,
    TableReward,
    XosReward,
)
from contractlab.solvers import best_cce, best_pne

KINDS = ("additive", "coverage", "xos", "supermodular", "table")


def nine_digits(rng):
    """A fraction with a 9-digit denominator, either sign."""
    return F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(10 ** 8, 10 ** 9 - 1))


def reference(f, S):
    """f(S) summed in Fractions from the reward's stored weights."""
    if isinstance(f, TableReward):
        return f.values[S]
    if isinstance(f, AdditiveReward):
        return sum((f.per_action[j] for j in bits_of(S)), F(0))
    if isinstance(f, XosReward):
        return max(sum((cl[j] for j in bits_of(S)), F(0)) for cl in f.clauses)
    if isinstance(f, CoverageReward):
        covered = 0
        for j in bits_of(S):
            covered |= f.covers[j]
        return sum((f.weights[e] for e in bits_of(covered)), F(0))
    return F(f.fn(S))


def rewards():
    """(label, reward): the five generator kinds, formula rewards, a table
    with negative entries and 9-digit denominators, and additive and XOS
    rewards with mixed fractional weights."""
    for kind in KINDS:
        for seed, sizes in ((1, [2, 2]), (2, [1, 1, 1]), (3, [3, 2])):
            yield f"{kind}/{seed}", random_instance(kind, seed, len(sizes), sizes).reward
    yield "formula", FormulaReward(4, lambda S: F(S.bit_count(), 1 + S % 3) - S % 2)
    yield "formula ints", FormulaReward(3, lambda S: 2 * S.bit_count() - 1)
    yield "gap formula", subadditive_gap_instance(4).reward
    rng = random.Random(19)
    table = [nine_digits(rng) for _ in range(16)]
    assert any(v < 0 for v in table)
    yield "table, 9 digits", TableReward(table)
    yield "additive, mixed", AdditiveReward([F(1, 2), 3, "2/7", F(5, 9), 0])
    yield "xos, mixed", XosReward([[F(1, 2), 3, "2/7", 0],
                                   [F(5, 9), "1/6", 1, F(123456789, 987654321)]])
    yield "coverage, mixed", CoverageReward([F(1, 3), 2, "3/4"], [0b011, 0b110, 0, 0b100])


@pytest.mark.parametrize("label, f", list(rewards()), ids=lambda v: v if isinstance(v, str) else "")
def test_value_pair_is_the_stored_weights_in_integers(label, f):
    table = f.table()
    assert len(table) == 1 << f.m
    for S in range(1 << f.m):
        pair = f.value_pair(S)
        n, d = pair
        assert type(n) is int and type(d) is int and d > 0, (label, S, pair)
        assert F(n, d) == reference(f, S), (label, S)
        assert F(*table[S]) == F(n, d), (label, S)


def test_value_pair_checks_the_profile():
    for f in (AdditiveReward([1, 2]), XosReward([[1, 2]]), CoverageReward([1], [1, 1]),
              TableReward([0, 1, 2, 3]), FormulaReward(2, lambda S: S)):
        for S in (-1, 4):
            with pytest.raises(ValueError, match="outside the 2 actions"):
                f.value_pair(S)


def test_formula_ints_pass_as_they_are():
    f = FormulaReward(2, lambda S: S.bit_count())
    assert f.value(3) == 2 and type(f.value(3)) is int
    assert f.value_pair(3) == (2, 1)


def float_game():
    reward = FormulaReward(2, lambda S: 0.1 * S.bit_count())
    return make_instance([[0], [0]], reward), Contract.of(["1/2", "1/4"])


def test_formula_refuses_a_float():
    inst, _ = float_game()
    for read in (inst.reward.value, inst.reward.value_pair):
        with pytest.raises(TypeError, match="float"):
            read(1)


@pytest.mark.parametrize("path", ["is_pne", "best_pne", "best_cce", "agent_utility"])
def test_a_float_formula_stops_every_path(path):
    """A float from the callback is a TypeError on each path that used to
    decide with it (is_pne), die with AttributeError (best_pne, best_cce) or
    hand it back (agent_utility)."""
    inst, a = float_game()
    call = {"is_pne": lambda: is_pne(inst, 0b11, a),
            "best_pne": lambda: best_pne(inst),
            "best_cce": lambda: best_cce(inst, a),
            "agent_utility": lambda: agent_utility(inst, 0b11, a, 0)}[path]
    with pytest.raises(TypeError, match="float"):
        call()

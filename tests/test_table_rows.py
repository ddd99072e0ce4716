"""Equilibrium LPs read f as the reward table's integer pairs: the regret rows
read f by profile, from the table over every profile (LP mode) or from a dict
over a support's profiles (support mode), and E[f] is taken from the
certified LP value."""
import random
from fractions import Fraction as F
from math import lcm

import pytest

from contractlab import solvers
from contractlab.core import ONE, make_instance
from contractlab.equilibria import JointDistribution, regret_rows
from contractlab.fixtures import (
    golden_ratio_instance,
    random_contract,
    random_instance,
    sample_cce,
    sample_ce,
    sample_dropout_stable,
    supermodular_cce_gap_instance,
)
from contractlab.rewards import AdditiveReward
from contractlab.solvers import best_ce, best_cce, equilibrium_lp, worst_cce
from padded_rows import padded

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SHAPES = ([2, 2], [1, 1, 1, 1], [2, 2, 1], [3, 1])


def instances():
    """(label, instance, contract): every generator kind on every shape."""
    for kind in KINDS:
        for sizes in SHAPES:
            seed = 1800 + 10 * len(sizes) + sum(sizes)
            inst = random_instance(kind, seed, len(sizes), sizes)
            yield f"{kind}/{sizes}", inst, random_contract(inst.n, random.Random(seed))


def fractional_instances():
    """Rewards off the integers: a table with 11/2, a table over the golden
    ratio's 50-digit denominators, and additive weights whose table pairs
    share one denominator and so are not all in lowest terms."""
    gap = supermodular_cce_gap_instance()
    yield "supermodular gap", gap, random_contract(gap.n, random.Random(1))
    golden = golden_ratio_instance()
    yield "golden ratio", golden, random_contract(golden.n, random.Random(2))
    halves = make_instance([["1/4", "1/2"], ["1/3"]],
                           AdditiveReward([F(1, 2), F(1, 3), F(5, 6)]))
    assert (3, 6) in halves.reward.table()
    yield "additive over 6", halves, random_contract(halves.n, random.Random(3))


@pytest.mark.parametrize("concept", ("ce", "cce", "dropout"))
def test_lp_mode_matches_support_mode(concept):
    """Over range(2^m), as the LPs pass it, f is the table indexed by
    profile; over the same profiles as a list, as a support, f is kept in a
    dict keyed by profile. Both yield the same agents, recommendations,
    deviations, rows and scales."""
    for label, inst, a in [*instances(), *fractional_instances()]:
        table = inst.reward.table()
        count = 1 << inst.m
        by_profile = list(regret_rows(inst, a, concept, range(count), table.__getitem__))
        by_dict = list(regret_rows(inst, a, concept, list(range(count)), table.__getitem__))
        assert by_profile == by_dict, label
        assert by_profile


@pytest.mark.parametrize("concept", ("ce", "cce", "dropout"))
def test_table_pairs_and_value_pairs_give_the_same_rows(concept):
    """f read from the table and from the value oracle are the same rationals:
    each row matches up to its group's positive scale."""
    for label, inst, a in [*instances(), *fractional_instances()]:
        profiles = range(1 << inst.m)
        from_table = padded(regret_rows(inst, a, concept, profiles,
                                        inst.reward.table().__getitem__), len(profiles))
        from_value = padded(regret_rows(inst, a, concept, list(profiles),
                                        inst.reward.value_pair), len(profiles))
        for got, want in zip(from_table, from_value, strict=True):
            assert got[:3] == want[:3], label
            for row, ref in zip(got[3:5], want[3:5]):
                assert [F(v, got[5]) for v in row] == [F(v, want[5]) for v in ref], label


def test_lp_utility_is_the_expected_reward_of_its_distribution():
    """best_cce, worst_cce and best_ce take E[f] from the certified LP value;
    it equals the Fraction expectation of f under the returned distribution."""
    checked = 0
    for label, inst, a in [*instances(), *fractional_instances()]:
        for solver in (best_cce, worst_cce, best_ce):
            dist, utility = solver(inst, a)
            assert utility == (ONE - a.total()) * dist.expectation(inst.reward.value), \
                (label, solver.__name__)
            checked += 1
    assert checked == 3 * (len(KINDS) * len(SHAPES) + 3)


def test_default_objective_is_the_tables_integers(monkeypatch):
    """The default objective reaches solve_lp as the table's numerators over
    their lcm, all ints; a sampler's objective is its integer draws."""
    solved = []
    real_solve = solvers.solve_lp

    def solve(lp, region=None):
        solved.append(lp)
        return real_solve(lp, region)

    monkeypatch.setattr(solvers, "solve_lp", solve)
    for label, inst, a in fractional_instances():
        table = inst.reward.table()
        solved.clear()
        equilibrium_lp(inst, a, "cce")
        (lp,) = solved
        assert all(type(w) is int for w in lp.objective), label
        den = lcm(*(d for _, d in table))
        assert [F(w) for w in lp.objective] == [den * F(*p) for p in table], label
        solved.clear()
        sample_ce(inst, a, random.Random(7))
        (lp,) = solved
        draws = random.Random(7)
        assert lp.objective == tuple(draws.randint(-5, 10) for _ in range(1 << inst.m))
        assert all(type(w) is int for w in lp.objective), label


def test_lp_value_is_the_optimum_of_a_callers_objective(monkeypatch):
    """Under a caller's objective the LP hands back that objective's certified
    optimum, and neither it nor a sampler takes an expectation of f."""
    def refuse(self, fn):
        raise AssertionError("an expectation was taken")

    monkeypatch.setattr(JointDistribution, "expectation", refuse)
    rng = random.Random(11)
    for label, inst, a in [*instances(), *fractional_instances()]:
        weights = [rng.randint(-5, 10) for _ in range(1 << inst.m)]
        for concept in ("cce", "ce", "dropout"):
            for sense in ("max", "min"):
                dist, value = equilibrium_lp(inst, a, concept, sense, weights.__getitem__)
                assert value == sum(p * weights[S] for S, p in dist.support), label
        for sample in (sample_cce, sample_ce, sample_dropout_stable):
            sample(inst, a, random.Random(7))

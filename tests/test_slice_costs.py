"""Each agent's slice costs, listed once per instance: ``Instance.slice_costs``
agrees with ``cost_numerator`` on every slice, is built on the agent's first
read, and is all that the regret rows and the PNE table read of the costs
(dropout rows past the enumeration cap sum their own slices). Also: the
contract grid picks its best cell, the first of the largest value, by
comparing integer pairs."""
import dataclasses
import random
from fractions import Fraction as F

import pytest

from contractlab.core import Contract, Instance, make_instance, submasks
from contractlab.equilibria import (
    JointDistribution,
    is_ce,
    is_cce,
    is_dropout_stable,
    is_mne,
    is_pne,
)
from contractlab.fixtures import (
    claim_c3_mne,
    random_contract,
    random_instance,
    sample_dropout_stable,
    subadditive_gap_instance,
)
from contractlab.rewards import FormulaReward, TableReward
from contractlab.solvers import best_ce, best_cce, best_pne, enumerate_pne, grid_search

KINDS = ("additive", "coverage", "xos", "supermodular", "table")


def test_slice_costs_match_cost_numerator():
    rng = random.Random(71)
    instances = [random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
                 for kind in KINDS for sizes in ([2, 2], [3, 1], [1, 2, 1])]
    # agents that own no actions, before, between and after the others
    instances.append(make_instance([[], [F(1, 3), 2], [], [F(5, 7)], []],
                                   TableReward(list(range(8)))))
    for inst in instances:
        for i in range(inst.n):
            mask = inst.agent_mask(i)
            shift, costs = kept = inst.slice_costs(i)
            assert len(costs) == 1 << mask.bit_count()
            assert [costs[T >> shift] for T in submasks(mask)] == \
                [inst.cost_numerator(T) for T in submasks(mask)] == list(costs)
            assert inst.slice_costs(i) is kept  # built once


def refuse(self, mask):
    raise AssertionError("a slice cost was summed afresh")


@pytest.mark.parametrize("kind", KINDS)
def test_rows_and_pne_table_read_only_the_kept_costs(kind, monkeypatch):
    inst = random_instance(kind, 73, 3, [2, 1, 1])
    a = random_contract(3, random.Random(73))
    D = JointDistribution(((0, F(1, 2)), (5, F(1, 4)), (inst.full_mask, F(1, 4))))
    expected = [is_cce(inst, D, a), is_ce(inst, D, a), is_dropout_stable(inst, D, a),
                is_pne(inst, 5, a), best_cce(inst, a), best_ce(inst, a),
                enumerate_pne(inst, a), best_pne(inst)]
    fresh = random_instance(kind, 73, 3, [2, 1, 1])
    monkeypatch.setattr(Instance, "cost_numerator", refuse)
    assert [is_cce(fresh, D, a), is_ce(fresh, D, a), is_dropout_stable(fresh, D, a),
            is_pne(fresh, 5, a), best_cce(fresh, a), best_ce(fresh, a),
            enumerate_pne(fresh, a), best_pne(fresh)] == expected


def test_dropout_past_the_cap_sums_its_own_slices(monkeypatch):
    """Past the enumeration cap only dropout rows are built: they price 0 and
    each agent's own slices, summed where they are read, and give the
    verdicts and LPs they give under the cap."""
    rng = random.Random(75)
    cases = []
    for kind in KINDS:
        inst = random_instance(kind, rng.randrange(1 << 30), 2, [3, 2])
        a = random_contract(2, rng)
        support = rng.sample(range(1 << inst.m), 3)
        D = JointDistribution(tuple((S, F(1, 3)) for S in support))
        cases.append((kind, inst, a, D, is_dropout_stable(inst, D, a),
                      sample_dropout_stable(inst, a, random.Random(1))))
    monkeypatch.setenv("CONTRACTLAB_CAP", "1")
    for kind, inst, a, D, verdict, sampled in cases:
        fresh = dataclasses.replace(inst)
        assert is_dropout_stable(fresh, D, a) == verdict, kind
        assert sample_dropout_stable(fresh, a, random.Random(1)) == sampled, kind
        assert fresh._slice_costs == [None, None]  # no agent's list was built


def test_a_second_gap_verifier_call_reuses_the_costs():
    """On a plain formula copy of the gap reward every agent's slice costs
    are built; on the count reward only those of x, y and the first agent of
    each half, the agents whose rows are written. A second call reuses each
    list the first call built and builds no other."""
    count = subadditive_gap_instance(9)
    formula = dataclasses.replace(count, reward=FormulaReward(count.m, count.reward.fn))
    for inst, writes in ((formula, list(range(count.n))), (count, [0, 1, 2, 11])):
        a, P = claim_c3_mne(inst, 9)
        assert is_mne(inst, P, a)
        kept = list(inst._slice_costs)
        assert [i for i, costs in enumerate(kept) if costs] == writes
        joint = P.to_joint(inst)
        assert is_mne(inst, P, a) and is_dropout_stable(inst, joint, a)
        assert all(x is y for x, y in zip(inst._slice_costs, kept))


@pytest.mark.parametrize("objective", ["best_pne", "best_cce", "worst_cce", "best_ce"])
@pytest.mark.parametrize("kind", KINDS)
def test_grid_picks_the_first_best_cell(kind, objective):
    inst = random_instance(kind, 77, 2, [1, 1])
    # explicit cells summing above 1 give negative values
    extra = [Contract((F(3, 4), F(3, 4))), Contract((F(1, 3), F(1, 3)))]
    report = grid_search(inst, 3, objective, explicit_cells=extra)
    values = [value for _, value in report.cells]
    assert all(type(v) is F for v in values)
    first = values.index(max(values))
    assert report.best_value == values[first]
    assert report.best_contract == report.cells[first][0]

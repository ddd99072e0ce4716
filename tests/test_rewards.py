import random
from fractions import Fraction as F

import pytest

from contractlab.core import CapacityError
from contractlab.rewards import (
    AdditiveReward,
    CoverageReward,
    TableReward,
    XosReward,
    classify,
    demand,
)
from contractlab.fixtures import (
    golden_ratio_instance,
    random_instance,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)


def test_value_oracles():
    inst = separation_example()
    assert inst.reward.value(0b01) == 180
    assert inst.reward.value(0) == 0
    t1 = subadditive_gap_instance(4)
    # everything active: 7 + (2n-1)/sqrt(n) with n = 4
    assert t1.reward.value((1 << t1.m) - 1) == 7 + F(7, 2)


def test_value_rejects_stray_bits():
    with pytest.raises(ValueError):
        separation_example().reward.value(1 << 5)


def test_coverage_refuses_a_cover_that_is_not_an_int():
    for bad in ([1, 1.9], [1.0, 2], [1, "2"], [1, F(2)]):
        with pytest.raises(TypeError):
            CoverageReward([1, 2], bad)
    assert CoverageReward([1, 2], [1, 3]).covers == (1, 3)
    # a bool is an index: True covers element 0, as 1 does
    assert CoverageReward([1, 2], [True, 2]).covers == (1, 2)


def test_table_reward_needs_power_of_two():
    with pytest.raises(ValueError):
        TableReward([0, 1, 2])


def test_xos_rejects_negative_clause():
    with pytest.raises(ValueError):
        XosReward([[F(-1), F(2)]])


def test_demand_separation():
    inst = separation_example()
    assert demand(inst.reward, [F(18), F(18)]) == 0b11
    assert demand(inst.reward, [F(18), F(18)], restrict=0) == 0
    # smallest-set tie-break: price exactly the marginal and the action drops
    assert demand(AdditiveReward([F(5), F(3)]), [F(4), F(4)]) == 0b01
    assert demand(AdditiveReward([F(5), F(3)]), [F(5), F(3)]) == 0


def test_demand_restrict_and_cap():
    inst = separation_example()
    assert demand(inst.reward, [F(18), F(18)], restrict=0b01) == 0b01
    # rewards without a closed form still enumerate, within the cap
    big = CoverageReward([F(1)] * 30, [1 << j for j in range(30)])
    with pytest.raises(CapacityError):
        demand(big, [F(0)] * 30)
    # XOS demand is a closed form: no enumeration, so no cap
    xos = XosReward([[F(1)] * 30, [F(3, 2)] * 10 + [F(0)] * 20])
    prices = [F(1, 2)] * 15 + [F(3, 4)] * 15
    assert demand(xos, prices) == (1 << 30) - 1
    assert demand(xos, prices, restrict=(1 << 15) - 1) == (1 << 10) - 1


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.5])
def test_demand_rejects_inexact_prices(bad):
    inst = separation_example()
    with pytest.raises(ValueError):
        demand(inst.reward, [F(18), bad])
    with pytest.raises(ValueError):
        demand(AdditiveReward([F(5), F(3)]), [bad, F(4)])
    # prices outside restrict are not read
    assert demand(inst.reward, [F(18), bad], restrict=0b01) == 0b01


def test_classify_fixtures():
    sep = classify(separation_example().reward)
    assert sep.submodular and sep.xos and sep.subadditive
    assert not sep.supermodular

    sup = classify(supermodular_cce_gap_instance().reward)
    assert sup.supermodular and sup.monotone
    assert not sup.submodular

    gold = classify(golden_ratio_instance(20).reward)
    assert not gold.subadditive and not gold.supermodular
    assert gold.monotone


def test_classify_additive():
    rep = classify(AdditiveReward([F(2), F(3)]))
    assert rep.additive and rep.submodular and rep.xos and rep.subadditive
    assert rep.supermodular  # additive sits in both cones


def test_classify_cap():
    with pytest.raises(CapacityError):
        classify(AdditiveReward([F(1)] * 13))


def test_classify_hierarchy_on_generated():
    for trial in range(8):
        cov = classify(random_instance("coverage", trial, 2, 2).reward)
        assert cov.submodular and cov.xos and cov.subadditive
        xos = classify(random_instance("xos", trial, 2, 2).reward)
        assert xos.xos and xos.subadditive
        sup = classify(random_instance("supermodular", trial, 2, 2).reward)
        assert sup.supermodular and sup.monotone


def test_classify_non_monotone_is_not_xos():
    # each per-set clause LP succeeds, but a max of nonnegative clauses is
    # monotone and f drops from {0} to {0, 1}
    rep = classify(TableReward([F(0), F(2), F(0), F(1)]))
    assert not rep.monotone and not rep.xos


def test_xos_clause_inequality():
    # for XOS f the supporting clause gives
    # sum over N' of f(S) - f(S_{-i}) <= f(union of N' slices)
    rng = random.Random(9)
    for trial in range(10):
        inst = random_instance("xos", 400 + trial, 3, 1)
        f = inst.reward.value
        for S in range(1 << inst.m):
            for Nmask in range(1 << inst.n):
                union = 0
                total = F(0)
                for i in range(inst.n):
                    if Nmask >> i & 1:
                        union |= S & inst.agent_mask(i)
                        total += f(S) - f(S & ~inst.agent_mask(i))
                assert total <= f(union)
    del rng

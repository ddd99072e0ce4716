"""The equilibrium LP an Instance keeps: per concept, the last contract's
rows, the reward's table and the feasible region ``solve_lp`` built for
them. A later LP with that contract and concept, whatever its objective,
answers as a fresh instance does, reads the reward zero times, builds no
region and still goes through ``solvers.solve_lp``; a new contract or a
replaced reward builds a region of its own, the caps bind on every call, and
phase 2 never changes the kept tableau."""
import copy
import dataclasses
import random
from fractions import Fraction as F

import pytest

from contractlab import solvers
from contractlab.core import CapacityError, Contract
from contractlab.fixtures import (
    random_contract,
    random_instance,
    sample_ce,
    sample_cce,
    sample_dropout_stable,
)
from contractlab.rewards import TableReward
from contractlab.solvers import best_ce, best_cce, equilibrium_lp, worst_cce

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 2], [1, 1, 1, 1], [2, 2, 1])

# name -> (concept, call); each sampler draws from its own seeded Random
LPS = {
    "best_cce": ("cce", best_cce),
    "worst_cce": ("cce", worst_cce),
    "best_ce": ("ce", best_ce),
    "sample_cce": ("cce", lambda inst, a: sample_cce(inst, a, random.Random(5))),
    "sample_ce": ("ce", lambda inst, a: sample_ce(inst, a, random.Random(6))),
    "sample_dropout_stable": ("dropout", lambda inst, a: sample_dropout_stable(
        inst, a, random.Random(7))),
}


def spy_on_reward(reward):
    """Record every read of ``reward``'s oracle and table from now on."""
    reads = []
    for name in ("value", "value_pair", "table"):
        def spy(*args, real=getattr(reward, name), name=name):
            reads.append(name)
            return real(*args)
        setattr(reward, name, spy)
    return reads


def count_calls(monkeypatch, name):
    """Count the calls of ``solvers.<name>`` from now on."""
    calls = []
    real = getattr(solvers, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(solvers, name, spy)
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_a_warm_instance_answers_as_a_fresh_one(kind, sizes):
    """Every LP on a warm instance, in three call orders and once more after
    them, equals the same LP on a fresh instance from the same seed."""
    seed = 2300 + sum(sizes)
    a = random_contract(len(sizes), random.Random(seed))
    fresh = {name: repr(call(random_instance(kind, seed, len(sizes), sizes), a))
             for name, (_, call) in LPS.items()}
    names = list(LPS)
    orders = [names, names[::-1], random.Random(seed).sample(names, len(names))]
    for order in orders:
        inst = random_instance(kind, seed, len(sizes), sizes)
        for name in order + order:
            assert repr(LPS[name][1](inst, a)) == fresh[name], (order, name)
        assert set(inst._lp_cache) == {"cce", "ce", "dropout"}


@pytest.mark.parametrize("kind", KINDS)
def test_a_hit_reads_no_reward_and_builds_no_region(kind, monkeypatch):
    inst = random_instance(kind, 23, 2, [2, 2])
    a = Contract((F(1, 4), F(1, 3)))
    reads = spy_on_reward(inst.reward)
    regions = count_calls(monkeypatch, "_region")
    solved = count_calls(monkeypatch, "solve_lp")
    for name in ("best_cce", "best_ce", "sample_dropout_stable"):
        LPS[name][1](inst, a)
    assert reads == ["table"]  # f is tabulated once per instance
    assert len(regions) == len(solved) == 3
    for log in (reads, regions, solved):
        log.clear()
    for _, call in LPS.values():
        call(inst, a)
    assert reads == [] and regions == []
    assert len(solved) == len(LPS)  # every LP still goes through solve_lp
    # each hit's program carries no region once it is solved
    assert all(lp._region is None for (lp,) in solved)


def test_a_new_contract_rebuilds_the_region(monkeypatch):
    inst = random_instance("table", 31, 3, [2, 2, 1])
    rng = random.Random(31)
    a, b = random_contract(3, rng), random_contract(3, rng)
    assert a != b
    expected = best_cce(random_instance("table", 31, 3, [2, 2, 1]), a)
    regions = count_calls(monkeypatch, "_region")
    best_cce(inst, a)
    kept = inst._lp_cache["cce"]
    assert kept[0] == a and len(regions) == 1
    worst_cce(inst, b)
    assert len(regions) == 2
    assert inst._lp_cache["cce"][0] == b and inst._lp_cache["cce"][3] is not kept[3]
    assert inst._lp_cache["cce"][1] is kept[1]  # the table is read once
    assert best_cce(inst, a) == expected  # rebuilt for a again
    assert len(regions) == 3
    # an equal contract built anew is a hit
    best_cce(inst, Contract(tuple(a.alpha)))
    assert len(regions) == 3


def test_a_replaced_reward_gets_its_own_region():
    inst = random_instance("table", 41, 2, [2, 1])
    a = Contract((F(1, 3), F(1, 4)))
    best_cce(inst, a)
    values = [2 * F(*p) + 1 for p in inst.reward.table()]
    other = dataclasses.replace(inst, reward=TableReward(values))
    assert other._lp_cache == {} and inst._lp_cache
    fresh = dataclasses.replace(random_instance("table", 41, 2, [2, 1]),
                                reward=TableReward(values))
    for name, (_, call) in LPS.items():
        assert repr(call(other, a)) == repr(call(fresh, a)), name
    assert other._lp_cache["cce"][1] is not inst._lp_cache["cce"][1]


def test_the_caps_bind_on_a_kept_region(monkeypatch):
    inst = random_instance("coverage", 51, 2, [2, 2])
    a = Contract((F(1, 5), F(1, 6)))
    for _, call in LPS.values():
        call(inst, a)
    assert set(inst._lp_cache) == {"cce", "ce", "dropout"}
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,8")
    for name, (_, call) in LPS.items():
        with pytest.raises(CapacityError, match="equilibrium LP: 16 profiles"):
            call(inst, a)
    monkeypatch.setenv("CONTRACTLAB_CAP", "1")
    for name, (concept, call) in LPS.items():
        if concept == "dropout":
            call(inst, a)  # dropout rows price no slice past the agent's own
        else:
            with pytest.raises(CapacityError, match=f"{concept} rows agent 0: 2"):
                call(inst, a)


@pytest.mark.parametrize("kind", KINDS)
def test_phase_two_leaves_the_kept_tableau_as_it_was(kind):
    """best, worst, best again: the first and last answers are equal, and the
    kept region's tableau, basis and denominator never change."""
    inst = random_instance(kind, 61, 3, [2, 1, 1])
    a = random_contract(3, random.Random(61))
    first = best_cce(inst, a)
    region = inst._lp_cache["cce"][3]
    snapshot = copy.deepcopy((region.tab, region.basis, region.d))
    worst = worst_cce(inst, a)
    draws = random.Random(62)
    weights = [draws.randint(-5, 10) for _ in range(1 << inst.m)]
    for sense in ("max", "min"):
        equilibrium_lp(inst, a, "cce", sense, weights.__getitem__)
    last = best_cce(inst, a)
    assert inst._lp_cache["cce"][3] is region
    assert (region.tab, region.basis, region.d) == snapshot
    assert repr(last) == repr(first)
    assert first[1] >= worst[1]

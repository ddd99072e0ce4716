"""The equilibrium LP an Instance keeps: per concept, the last contract, the
reward's table and the feasible region ``solve_lp`` built for the LP rows.
A later LP with that contract and concept, whatever its objective, answers
as a fresh instance does, reads the reward zero times, builds no region and
still goes through ``solvers.solve_lp``; a new contract or a replaced reward
builds a region of its own, the caps bind on every call, and phase 2 never
changes the kept tableau. On any LP, a region handed back to ``solve_lp``
gives a fresh solve's answer, and one built for other rows is refused."""
import copy
import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from contractlab import solvers
from contractlab.core import CapacityError, Contract, over_common_denominator
from contractlab.fixtures import (
    random_contract,
    random_instance,
    sample_ce,
    sample_cce,
    sample_dropout_stable,
)
from contractlab.rewards import TableReward
from contractlab.solvers import best_ce, best_cce, equilibrium_lp, solve_lp, worst_cce
from test_lp_crash import random_bounded_lp

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
    # each hit is handed the region its concept keeps
    for (lp, region), (concept, _) in zip(solved, LPS.values()):
        assert region is inst._lp_cache[concept][2] and lp.rows is region.rows


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
    assert inst._lp_cache["cce"][0] == b and inst._lp_cache["cce"][2] is not kept[2]
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
    region = inst._lp_cache["cce"][2]
    snapshot = copy.deepcopy((region.tab, region.basis, region.d))
    worst = worst_cce(inst, a)
    draws = random.Random(62)
    weights = [draws.randint(-5, 10) for _ in range(1 << inst.m)]
    for sense in ("max", "min"):
        equilibrium_lp(inst, a, "cce", sense, weights.__getitem__)
    last = best_cce(inst, a)
    assert inst._lp_cache["cce"][2] is region
    assert (region.tab, region.basis, region.d) == snapshot
    assert repr(last) == repr(first)
    assert first[1] >= worst[1]


def test_a_region_handed_back_solves_a_general_lp_as_a_fresh_solve(monkeypatch):
    """``solve_lp(lp).region`` serves any objective of either sense on the
    same rows: the answer equals a fresh solve's in status, x and value. The
    seeded programs include ones that reach phase 1, ones whose redundant
    "=" rows phase 1 drops (a multiple of an "=" row added to half of them),
    and infeasible ones, whose result carries no region."""
    iterations = count_calls(monkeypatch, "_iterate")
    rng = random.Random(2707)
    seen = Counter()
    for _ in range(300):
        lp = random_bounded_lp(rng)
        equalities = [row for row in lp.rows if row[1] == "="]
        if equalities and rng.random() < 0.5:
            coeffs, _, rhs = rng.choice(equalities)
            k = rng.randint(1, 3)
            lp = dataclasses.replace(
                lp, rows=lp.rows + ((tuple(k * v for v in coeffs), "=", k * rhs),))
        iterations.clear()
        first = solve_lp(lp)
        if first.status == "infeasible":
            assert first.region is None
            seen["infeasible"] += 1
            continue
        region = first.region
        assert region.rows is lp.rows
        seen["phase 1"] += len(iterations) == 2  # phase 1, then phase 2
        kept = sum(solvers._presolve(over_common_denominator([*coeffs, rhs])[0], rel)
                   == "kept" for coeffs, rel, rhs in lp.rows)
        seen["dropped"] += len(region.basis) < kept
        for sense in ("max", "min"):
            other = dataclasses.replace(lp, sense=sense, objective=tuple(
                F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in lp.objective))
            handed, fresh = solve_lp(other, region), solve_lp(other)
            assert (handed.status, handed.x, handed.value) == \
                (fresh.status, fresh.x, fresh.value), other
            assert handed.region is region
    assert min(seen[k] for k in ("infeasible", "phase 1", "dropped")) > 0, seen


def test_a_region_built_for_other_rows_is_refused():
    rng = random.Random(2711)
    programs = [random_bounded_lp(rng) for _ in range(40)]
    programs = [lp for lp in programs if solve_lp(lp).status == "optimal"]
    for lp, other in zip(programs, programs[1:]):
        region = solve_lp(lp).region
        with pytest.raises(ValueError, match="built for other rows"):
            solve_lp(other, region)
        # equal rows in another tuple are the same rows
        same = dataclasses.replace(lp, rows=tuple(list(lp.rows)))
        assert same.rows is not lp.rows
        assert solve_lp(same, region) == solve_lp(same)

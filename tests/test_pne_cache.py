"""The PNE table an Instance keeps: its rows are those of _pne_bounds, best
f first, a second search on the same instance reads the reward zero times
and answers as a fresh equal instance does, the caps bind on every search
once the table is built, and a replaced instance builds a table of its own."""
import dataclasses
from fractions import Fraction as F

import pytest

from contractlab.core import CapacityError, Contract, make_instance
from contractlab.fixtures import random_instance
from contractlab.rewards import TableReward
from contractlab.solvers import (
    _pne_bounds,
    _pne_rows,
    enumerate_pne,
    evaluate_cell,
    grid_search,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
SIZES = ([2, 1], [2, 2], [1, 1, 1], [2, 1, 1])


def searches(inst, a):
    """The three searches that read the instance's PNE table."""
    return [lambda: enumerate_pne(inst, a),
            lambda: evaluate_cell(inst, a, "best_pne"),
            lambda: grid_search(inst, 2, "best_pne", explicit_cells=[a])]


def ranked_bounds(inst):
    """The rows of ``_pne_bounds``, f(S) descending, the smaller S first."""
    return tuple(sorted(_pne_bounds(inst), key=lambda row: (-F(*row[1]), row[0])))


def spy_on_reward(reward):
    """Record every read of ``reward``'s oracle and table from now on."""
    reads = []
    for name in ("value", "value_pair", "table"):
        def spy(*args, real=getattr(reward, name), name=name):
            reads.append(name)
            return real(*args)
        setattr(reward, name, spy)
    return reads


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", SIZES)
def test_kept_rows_are_the_pne_bounds(kind, sizes):
    inst = random_instance(kind, 31, len(sizes), sizes)
    rows = _pne_rows(inst)
    assert rows == ranked_bounds(inst)
    assert _pne_rows(inst) is rows


@pytest.mark.parametrize("kind", KINDS)
def test_later_searches_read_no_reward(kind):
    inst = random_instance(kind, 9, 3, [2, 1, 1])
    a = Contract((F(1, 4), F(1, 3), F(1, 5)))
    reads = spy_on_reward(inst.reward)
    first = [search() for search in searches(inst, a)]
    assert reads == ["table"]  # one build, by the first search
    reads.clear()
    again = [search() for search in searches(inst, a)]
    assert reads == []
    assert again == first
    fresh = random_instance(kind, 9, 3, [2, 1, 1])
    assert fresh.costs == inst.costs and fresh._pne_cache is None
    assert [search() for search in searches(fresh, a)] == first


def test_profile_cap_binds_on_a_built_table(monkeypatch):
    inst = random_instance("additive", 8, 5, 1)
    a = Contract.zero(5)
    for search in searches(inst, a):  # built under the default caps
        search()
    assert inst._pne_cache is not None
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,16")
    for search in searches(inst, a):
        with pytest.raises(CapacityError, match="PNE table: 32 profiles"):
            search()


def test_agent_cap_binds_on_a_built_table(monkeypatch):
    inst = random_instance("table", 3, 2, [2, 1])
    a = Contract((F(1, 3), F(1, 3)))
    enumerate_, cell, grid = searches(inst, a)
    for search in (enumerate_, cell, grid):
        search()
    monkeypatch.setenv("CONTRACTLAB_CAP", "1")
    for search in (enumerate_, cell):
        with pytest.raises(CapacityError, match="PNE table agent 0: 2"):
            search()
    # the grid stops at its own check, before it reads the table
    with pytest.raises(CapacityError, match="contract grid"):
        grid()


def test_a_replaced_reward_builds_its_own_table():
    inst = make_instance([[1], [1]], TableReward([0, 3, 2, 4]))
    a = Contract((F(1, 2), F(1, 2)))
    rows = _pne_rows(inst)
    other = dataclasses.replace(inst, reward=TableReward([0, 1, 1, 10]))
    assert other._pne_cache is None
    assert _pne_rows(other) == ranked_bounds(other) != rows
    assert _pne_rows(inst) is rows
    fresh = make_instance([[1], [1]], TableReward([0, 1, 1, 10]))
    assert enumerate_pne(other, a) == enumerate_pne(fresh, a) != enumerate_pne(inst, a)

"""The closed-form demand oracles and classify's marginal-chain witness,
checked against the exhaustive routes they replace."""
import random
from fractions import Fraction as F

import pytest

from contractlab import rewards, solvers
from contractlab.core import Contract, make_instance
from contractlab.equilibria import is_pne, potential_maximizer_pne
from contractlab.fixtures import (
    golden_ratio_instance,
    random_instance,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)
from contractlab.rewards import (
    AdditiveReward,
    TableReward,
    XosReward,
    classify,
    demand,
)

KINDS = ("additive", "coverage", "xos", "supermodular", "table")


def brute_demand(f, prices, restrict):
    """The smallest bitset maximizing f(S) - p(S) over every S within restrict."""
    best_set, best_value = None, None
    for S in range(1 << f.m):
        if S & ~restrict:
            continue
        v = f.value(S) - sum(prices[j] for j in range(f.m) if S >> j & 1)
        if best_value is None or v > best_value:
            best_set, best_value = S, v
    return best_set


# ---------------------------------------------------------------------------
# demand

def test_demand_starts_from_the_empty_set_value():
    f = TableReward([-5, -1])
    assert demand(f, [0]) == 0b1
    assert demand(f, [F(3)]) == 0b1   # -1 - 3 = -4 still beats -5
    assert demand(f, [F(4)]) == 0b0   # a tie keeps the smaller set
    assert demand(f, [0], restrict=0) == 0


def test_potential_maximizer_with_negative_empty_value():
    inst = make_instance([[0]], TableReward([-5, -1]))
    a = Contract.of([F(1, 2)])
    S = potential_maximizer_pne(inst, a, inst.full_mask)
    assert S == 0b1 and is_pne(inst, S, a)


@pytest.mark.parametrize("restrict", [-1, 1 << 3, (1 << 3) | 1])
@pytest.mark.parametrize("f", [
    TableReward([0, 1, 1, 2, 1, 2, 2, 3]),
    AdditiveReward([1, 2, 3]),
    XosReward([[1, 2, 3], [3, 0, 0]]),
], ids=["enumerated", "additive", "xos"])
def test_demand_rejects_restrict_outside_actions(f, restrict):
    with pytest.raises(ValueError, match="restrict"):
        demand(f, [0, 0, 0], restrict)


def test_xos_demand_ties_across_clauses():
    f = XosReward([[3, 0], [0, 3]])
    # both clauses reach surplus 2; {0} is the smaller set
    assert demand(f, [1, 1]) == 0b01
    assert demand(f, [1, 1], restrict=0b10) == 0b10
    # {0}, {0, 1} (action 1 has zero surplus) and {2} all reach 1
    g = XosReward([[2, 1, 0], [0, 0, 2]])
    assert demand(g, [1, 1, 1]) == 0b001
    assert demand(g, [1, 1, 1], restrict=0b110) == 0b100
    assert brute_demand(g, [1, 1, 1], 0b111) == 0b001


def test_xos_demand_zero_surplus_actions_are_left_out():
    f = XosReward([[2, 3, 1], [1, 1, 4]])
    # w_kj = p_j on every action of the first clause
    assert demand(f, [2, 3, 1]) == 0b100
    assert demand(f, [2, 3, 4]) == 0
    assert demand(f, [0, 0, 0]) == 0b111
    assert demand(XosReward([[0, 0, 0]]), [0, 0, 0]) == 0


def test_xos_demand_matches_brute_force():
    rng = random.Random(90)
    for trial in range(400):
        m = rng.randint(1, 10 if trial % 20 == 0 else 7)
        top = rng.choice([2, 4, 9])
        clauses = [[rng.randint(0, top) for _ in range(m)]
                   for _ in range(rng.randint(1, 4))]
        f = XosReward(clauses)
        style = trial % 4
        if style == 0:
            prices = [0] * m
        elif style == 1:
            prices = [rng.randint(0, top) for _ in range(m)]
        elif style == 2:
            prices = [F(rng.randint(0, 2 * top), rng.randint(1, 3)) for _ in range(m)]
        else:
            # prices copied from clause entries: many zero surpluses and ties
            prices = [rng.choice(clauses)[j] for j in range(m)]
        restricts = [(1 << m) - 1, 0] + [rng.randrange(1 << m) for _ in range(2)]
        for restrict in restricts:
            assert demand(f, prices, restrict) == brute_demand(f, prices, restrict), \
                (clauses, prices, restrict)


def test_closed_forms_match_brute_force_on_generated():
    rng = random.Random(91)
    for kind in KINDS:
        for m in range(1, 9):
            sizes = [s for s in (m - m // 2, m // 2) if s]
            inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
            prices = [F(rng.randint(0, 30), rng.randint(1, 4)) for _ in range(m)]
            for restrict in ((1 << m) - 1, rng.randrange(1 << m)):
                assert demand(inst.reward, prices, restrict) == \
                    brute_demand(inst.reward, prices, restrict)


# ---------------------------------------------------------------------------
# classify

def _without_witness(monkeypatch, f):
    with monkeypatch.context() as patch:
        patch.setattr(rewards, "_attaining_clause_supports",
                      lambda table, clauses, S: False)
        patch.setattr(rewards, "_marginal_chain_supports", lambda table, S: False)
        return classify(f)


def _monotone_table(rng, m, xos):
    if xos:
        clauses = [[rng.randint(0, 4) for _ in range(m)] for _ in range(rng.randint(2, 4))]
        f = XosReward(clauses)
        return TableReward([f.value(S) for S in range(1 << m)])
    table = [F(0)] * (1 << m)
    for S in range(1, 1 << m):
        floor = max(table[S & ~(1 << j)] for j in range(m) if S >> j & 1)
        table[S] = floor + F(rng.randint(0, 3), rng.randint(1, 2))
    return TableReward(table)


def test_witness_leaves_reports_unchanged(monkeypatch):
    rng = random.Random(92)
    rewards_under_test = [
        separation_example().reward,
        supermodular_cce_gap_instance().reward,
        golden_ratio_instance(20).reward,
        subadditive_gap_instance(1).reward,
        XosReward([[0, 1, 1], [1, 0, 0]]),
        TableReward([0, 2, 0, 1]),       # not monotone
        TableReward([1, 2, 2, 3]),       # not normalized
    ]
    for kind in KINDS:
        for m in range(1, 8):
            sizes = [s for s in (m - m // 2, m // 2) if s]
            rewards_under_test.append(
                random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes).reward)
    for m in range(1, 6):
        for xos in (True, False):
            rewards_under_test.append(_monotone_table(rng, m, xos))
    xos_seen = set()
    for f in rewards_under_test:
        report = classify(f)
        assert report == _without_witness(monkeypatch, f)
        xos_seen.add(report.xos)
    assert xos_seen == {True, False}


def _no_lp(lp):
    raise AssertionError("classify solved an LP")


def test_classify_solves_no_lp_on_additive_or_coverage(monkeypatch):
    monkeypatch.setattr(solvers, "solve_lp", _no_lp)
    rng = random.Random(93)
    for kind in ("additive", "coverage"):
        for m in range(1, 8):
            sizes = [s for s in (m - m // 2, m // 2) if s]
            inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
            assert classify(inst.reward).xos
    assert classify(separation_example().reward).xos


def test_classify_solves_no_lp_on_xos_rewards(monkeypatch):
    monkeypatch.setattr(solvers, "solve_lp", _no_lp)
    rng = random.Random(94)
    for m in range(1, 8):
        sizes = [s for s in (m - m // 2, m // 2) if s]
        inst = random_instance("xos", rng.randrange(1 << 30), len(sizes), sizes)
        assert classify(inst.reward).xos
    # the chain of {0, 1, 2} fails here (see below); the attaining clause
    # (0, 1, 1) is the reward's own
    assert classify(XosReward([[0, 1, 1], [1, 0, 0]])).xos
    # ties across clauses, fractional weights off the table's denominators
    assert classify(XosReward([[F(1, 2), F(1, 2)], [1, 0], [0, 1]])).xos
    assert classify(XosReward([[F(1, 3), F(2, 3), 0], [0, 0, 1]])).xos


def test_classify_falls_back_to_the_lp(monkeypatch):
    # f = max(x1 + x2, x0) as a table: the chain of {0, 1, 2} is (1, 0, 1),
    # which overshoots f({0, 2}) = 1; the clause (0, 1, 1) supports it instead
    f = TableReward([XosReward([[0, 1, 1], [1, 0, 0]]).value(S) for S in range(8)])
    assert f.values == (0, 1, 1, 1, 1, 1, 2, 2)
    calls = []
    real = solvers.solve_lp

    def counting(lp):
        calls.append(lp)
        return real(lp)
    monkeypatch.setattr(solvers, "solve_lp", counting)
    assert classify(f).xos
    assert len(calls) == 1

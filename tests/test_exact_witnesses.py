"""The closed-form demand oracles, and classify's witnesses and class
inclusions, checked against the exhaustive routes and the definitions they
replace."""
import random
from fractions import Fraction as F

import pytest

from contractlab import rewards, solvers
from contractlab.core import Contract, bits_of, make_instance, submasks
from contractlab.equilibria import is_pne, potential_maximizer_pne
from contractlab.fixtures import (
    golden_ratio_instance,
    random_contract,
    random_instance,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)
from contractlab.rewards import (
    AdditiveReward,
    CoverageReward,
    FormulaReward,
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
# the integer search over the reward's table

def nine_digits(rng):
    return F(rng.randint(0, 10 ** 9), rng.randint(10 ** 8, 10 ** 9))


def searched_rewards(rng, m):
    """Coverage, table, supermodular and formula rewards on m actions, some
    with 9-digit denominators."""
    for kind in ("coverage", "table", "supermodular"):
        yield random_instance(kind, rng.randrange(1 << 30), 1, [m]).reward
    yield CoverageReward([nine_digits(rng) for _ in range(m + 1)],
                         [rng.randrange(1 << (m + 1)) for _ in range(m)])
    yield TableReward([nine_digits(rng) for _ in range(1 << m)])
    yield FormulaReward(m, lambda S: F(S.bit_count() ** 2, 1 + S % 5) - F(S % 3, 7))


def price_vectors(rng, m):
    yield [0] * m
    yield [rng.randint(0, 3) for _ in range(m)]
    yield [F(rng.randint(0, 30), rng.randint(1, 4)) for _ in range(m)]
    yield [nine_digits(rng) for _ in range(m)]


@pytest.mark.parametrize("cap", [None, "24,16", "24,1", "24,0"])
def test_searched_demand_matches_brute_force(monkeypatch, cap):
    """Caps of 16, 1 and 0 profiles split restrict into several blocks."""
    if cap:
        monkeypatch.setenv("CONTRACTLAB_CAP", cap)
    rng = random.Random(f"searched-demand/{cap}")
    for m in range(0, 8):
        for f in searched_rewards(rng, m):
            for prices in price_vectors(rng, m):
                for restrict in ((1 << m) - 1, rng.randrange(1 << m), 0):
                    assert demand(f, prices, restrict) == \
                        brute_demand(f, prices, restrict), (f, prices, restrict)


@pytest.mark.parametrize("cap", [None, "24,2"])
def test_searched_demand_ties_keep_the_smallest_set(monkeypatch, cap):
    if cap:
        monkeypatch.setenv("CONTRACTLAB_CAP", cap)
    # f - p is 1 on every nonempty set and 0 on the empty set
    f = TableReward([0, 2, 2, 3, 2, 3, 3, 4])
    assert demand(f, [1, 1, 1]) == 0b001
    assert demand(f, [1, 1, 1], restrict=0b110) == 0b010
    assert demand(f, [1, 1, 1], restrict=0b100) == 0b100
    # every set ties at f - p = 0: the empty set wins
    g = CoverageReward([F(2, 3), F(1, 3)], [0b01, 0b10, 0b11])
    assert demand(g, [F(2, 3), F(1, 3), 1]) == 0
    # ties across 9-digit denominators, which the pairs leave unreduced
    big = F(123456789, 987654321)
    h = FormulaReward(2, lambda S: big * S.bit_count())
    assert demand(h, [big, big]) == 0
    assert demand(h, [big, big - F(1, 10 ** 9)]) == 0b10


def test_searched_demand_with_empty_restrict():
    for f in (TableReward([-5, 1]), CoverageReward([1], [1]),
              FormulaReward(1, lambda S: F(-3))):
        assert demand(f, [0], restrict=0) == 0


def test_searched_demand_on_a_wide_formula_reads_only_restrict():
    inst = subadditive_gap_instance(729)  # 1460 actions
    calls = []
    reward = FormulaReward(inst.m, lambda S: calls.append(S) or inst.reward.fn(S))
    bits = [1 << 1, 1 << 2, 1 << 1459]
    subsets = sorted(sum(b for t, b in enumerate(bits) if k >> t & 1) for k in range(8))
    S = demand(reward, [F(1, 3)] * inst.m, sum(bits))
    assert sorted(calls) == subsets
    surplus = {T: inst.reward.value(T) - F(T.bit_count(), 3) for T in subsets}
    assert S == min(T for T in subsets if surplus[T] == max(surplus.values()))


def _refuse(self, S):
    raise AssertionError("the value oracle was called")


@pytest.mark.parametrize("kind", ["coverage", "table", "supermodular"])
def test_searched_demand_makes_no_value_call(monkeypatch, kind):
    inst = random_instance(kind, 12, 2, [5, 5])
    for cls in (CoverageReward, TableReward):
        monkeypatch.setattr(cls, "value", _refuse)
    assert demand(inst.reward, [F(1, 3)] * inst.m) >= 0


@pytest.mark.parametrize("kind", ["coverage", "table"])
def test_potential_maximizer_reads_the_oracle_only_in_its_post_check(
        monkeypatch, kind):
    """The demand query reads the table; the oracle serves only the is_pne
    check of the result, which stays independent of the search."""
    rng = random.Random(f"post-check/{kind}")
    for _ in range(4):
        inst = random_instance(kind, rng.randrange(1 << 30), 3, [4, 3, 3])
        a = random_contract(inst.n, rng)
        calls = []
        cls = type(inst.reward)
        plain = cls.value
        with monkeypatch.context() as patch:
            patch.setattr(cls, "value", lambda self, S: calls.append(S) or plain(self, S))
            S = potential_maximizer_pne(inst, a, inst.full_mask)
            during_search = list(calls)
            calls.clear()
            assert is_pne(inst, S, a)
        assert during_search == calls


# ---------------------------------------------------------------------------
# classify

def _without_witness(monkeypatch, f):
    """classify with the exact LP as the only XOS route: no own clauses, no
    submodular shortcut and no chain of marginals."""
    every_set_supported = rewards._every_set_supported
    with monkeypatch.context() as patch:
        patch.setattr(rewards, "_every_set_supported",
                      lambda table, m, clauses, submodular:
                          every_set_supported(table, m, (), False))
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


def _by_definition(f):
    """Every class decided straight from its definition, over exact values:
    monotone, submodular and supermodular over all pairs S within T,
    subadditive over all pairs (S, T), XOS by the exact LP on every S."""
    m, full = f.m, (1 << f.m) - 1
    v = [f.value(S) for S in range(1 << m)]
    nested = [(S, T) for T in range(1 << m) for S in submasks(T)]
    # f(S + j) - f(S) and f(T + j) - f(T) for S within T and j outside T
    marginals = [(v[S | 1 << j] - v[S], v[T | 1 << j] - v[T])
                 for S, T in nested for j in bits_of(full & ~T)]
    normalized = v[0] == 0
    monotone = all(v[S] <= v[T] for S, T in nested)
    return rewards.ClassReport(
        monotone=monotone,
        normalized=normalized,
        additive=normalized and all(
            v[S] == sum(v[1 << j] for j in bits_of(S)) for S in range(1 << m)),
        submodular=all(small >= big for small, big in marginals),
        xos=normalized and monotone and all(
            rewards._xos_supporting_clause_exists(v, m, S) for S in range(1, 1 << m)),
        subadditive=all(v[S] + v[T] >= v[S | T]
                        for S in range(1 << m) for T in range(1 << m)),
        supermodular=all(small <= big for small, big in marginals))


def _seeded_table(rng, m):
    """Any table: some non-monotone, non-normalized or negative, some from
    the monotone families above."""
    style = rng.randrange(4)
    if style == 0:
        return TableReward([rng.randint(-3, 6) for _ in range(1 << m)])
    if style == 1:
        return TableReward([0] + [F(rng.randint(0, 6), rng.randint(1, 3))
                                  for _ in range((1 << m) - 1)])
    return _monotone_table(rng, m, xos=style == 3)


BOUNDARY_REWARDS = [
    TableReward([1, 2, 2, 3]),         # submodular, monotone, not normalized
    TableReward([0, 2, 2, 1]),         # submodular, not monotone, subadditive
    XosReward([[0, 1, 1], [1, 0, 0]]),  # XOS, not submodular
]


def test_classify_matches_the_definitions():
    rng = random.Random(95)
    rewards_under_test = list(BOUNDARY_REWARDS)
    rewards_under_test.append(subadditive_gap_instance(1).reward)
    for m in range(0, 6):
        rewards_under_test += [_seeded_table(rng, m) for _ in range(12)]
    for kind in KINDS:
        for m in range(1, 8):
            sizes = [s for s in (m - m // 2, m // 2) if s]
            rewards_under_test.append(
                random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes).reward)
    seen = set()
    for f in rewards_under_test:
        report = classify(f)
        assert report == _by_definition(f), f
        seen.add(report)
    assert len(seen) >= 8


def test_classify_boundary_rewards():
    shifted, bent, clauses = map(classify, BOUNDARY_REWARDS)
    assert shifted.submodular and shifted.monotone and not shifted.normalized
    assert not shifted.xos and shifted.subadditive
    assert bent.submodular and bent.normalized and not bent.monotone
    assert not bent.xos and bent.subadditive
    assert clauses.xos and clauses.subadditive and not clauses.submodular


class _LoweredXos(XosReward):
    """An XOS reward whose table reads one unit lower at one profile than
    its clauses give, so a clause attaining f there is no longer dominated."""

    def __init__(self, clauses, lowered):
        super().__init__(clauses)
        self.lowered = lowered

    def table(self):
        """The full table, the only one classify reads."""
        pairs = super().table()
        n, d = pairs[self.lowered]
        pairs[self.lowered] = (n - 1, d)
        return pairs


@pytest.mark.parametrize("clauses, lowered, xos", [
    # (0, 0, 1, 2): no clause reaches f({0, 1}) = 2 under f
    ([[1, 1]], 0b01, False),
    # (0, 2, 1, 2, 1, 2, 2, 3): (2, 1, 0) is no longer dominated, yet f is XOS
    ([[0, 1, 1], [2, 1, 0]], 0b011, True),
], ids=["undominated", "still-xos"])
def test_undominated_clause_is_no_witness(monkeypatch, clauses, lowered, xos):
    f = _LoweredXos(clauses, lowered)
    report = classify(f)
    assert not report.submodular
    assert report.xos == _without_witness(monkeypatch, f).xos == xos
    assert report == _by_definition(TableReward([F(n, d) for n, d in f.table()]))

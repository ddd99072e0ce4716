"""The integer regret rows: their values against utilities written out by hand,
the LP benchmarks against a simplex run on rows built from scratch in
Fractions, the verifiers' tolerance, and is_mne against the product form."""
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from contractlab.core import Contract, make_instance, submasks
from contractlab.equilibria import (
    ProductDistribution,
    Verdict,
    is_ce,
    is_cce,
    is_dropout_stable,
    is_mne,
    is_pne,
    regret_rows,
)
from contractlab.fixtures import (
    claim_c3_mne,
    golden_ratio_instance,
    golden_ratio_mne,
    random_contract,
    random_instance,
    separation_example,
    separation_mne,
    subadditive_gap_instance,
)
from contractlab.rewards import FormulaReward, TableReward
from contractlab.solvers import LinearProgram, best_ce, best_cce, solve_lp, worst_cce
from padded_rows import padded

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
CONCEPTS = ("cce", "ce", "dropout")


def nine_digit_table(seed, sizes):
    """A table reward and costs whose denominators have nine digits."""
    rng = random.Random(seed)
    m = sum(sizes)
    values = [F(0)] + [F(rng.randint(1, 10 ** 9), rng.randint(10 ** 8, 10 ** 9))
                       for _ in range(1, 1 << m)]
    costs = [[F(rng.randint(0, 10 ** 6), rng.randint(10 ** 8, 10 ** 9))
              for _ in range(k)] for k in sizes]
    return make_instance(costs, TableReward(values))


def nine_digit_contract(n, rng):
    return Contract(tuple(F(rng.randint(0, 10 ** 5), rng.randint(10 ** 6, 10 ** 7))
                          for _ in range(n)))


def zero_costs(inst):
    return make_instance([[0] * inst.agent_mask(i).bit_count() for i in range(inst.n)],
                         inst.reward)


def cases():
    """(label, instance, contract, mix): the five kinds, with and without
    costs, and nine-digit tables, with mix None; and the subadditive gap
    instance at n = 4 and 9 (a CountReward on 10 and 20 actions) with mix
    its C3 product distribution, whose 4-profile support stands in for the
    2^m profiles."""
    rng = random.Random("integer-rows")
    for kind in KINDS:
        for sizes in ([2, 1], [1, 1, 1], [2, 2]):
            inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
            a = random_contract(inst.n, rng)
            yield f"{kind}/{sizes}", inst, a, None
            yield f"{kind}/{sizes}/free", zero_costs(inst), a, None
    for sizes in ([2, 2], [1, 1, 1], [2, 1, 1]):
        inst = nine_digit_table(rng.randrange(1 << 30), sizes)
        yield f"nine-digit/{sizes}", inst, nine_digit_contract(inst.n, rng), None
    for n in (4, 9):
        inst = subadditive_gap_instance(n)
        a, P = claim_c3_mne(inst, n)
        yield f"gap/n{n}", inst, a, P


def utility(inst, a, i, S):
    """a_i f(S) - c(S_i), written out."""
    own = S & inst.agent_mask(i)
    return a[i] * inst.reward.value(S) - sum(
        (c for j, c in enumerate(inst.costs) if own >> j & 1), F(0))


def expected_rows(inst, profiles, concept):
    """(agent, recommendation, deviation, members) of every row, in order."""
    rows = []
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        if concept == "ce":
            recs = list(dict.fromkeys(S & mask for S in profiles))
            rows += [(i, R, T, {k for k, S in enumerate(profiles) if S & mask == R})
                     for R in recs for T in submasks(mask) if T != R]
        else:
            targets = (0,) if concept == "dropout" else submasks(mask)
            rows += [(i, None, T, set(range(len(profiles)))) for T in targets]
    return rows


def formula_copy(inst):
    """``inst`` with its reward as a plain ``FormulaReward`` of the same f,
    whose regret rows list every agent."""
    return replace(inst, reward=FormulaReward(inst.m, inst.reward.fn))


def check_class_reduction(inst, a, concept, profiles, rows):
    """The count reward's rows on ``profiles`` are ``rows``, those of its
    formula copy, without the agents that repeat an earlier one: fixed on
    ``profiles``, one action, and the same orbit, slice, share and cost.
    Each row of such an agent equals its representative's, entry for entry,
    with T and the recommendation each the agent's own action or 0."""
    got = list(regret_rows(inst, a, concept, profiles, inst.reward.value_pair))
    varying = 0
    for S in profiles:
        varying |= S ^ profiles[0]
    first, omitted = {}, {}  # class -> its first agent; agent -> that agent
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        if mask & varying:
            continue
        j = mask.bit_length() - 1
        key = (inst.reward.orbit_of[j], profiles[0] & mask != 0, a[i], inst.costs[j])
        if key in first:
            omitted[i] = first[key]
        else:
            first[key] = i
    assert got == [row for row in rows if row[0] not in omitted]
    by_agent = {}
    for row in rows:
        by_agent.setdefault(row[0], []).append(row)
    for i, rep in omitted.items():
        assert len(by_agent[i]) == len(by_agent[rep])
        for (_, rec, T, *entries), (_, rep_rec, rep_T, *rep_entries) in zip(
                by_agent[i], by_agent[rep]):
            assert entries == rep_entries
            assert (rec is None, bool(rec), bool(T)) == \
                (rep_rec is None, bool(rep_rec), bool(rep_T))
    return len(omitted)


@pytest.mark.parametrize("concept", CONCEPTS)
def test_row_values_are_exact_utilities(concept):
    """Every row's values against utilities written out. The gap cases'
    rows come from a formula copy of their count reward, which lists every
    agent; the count reward's own rows are those less the agents that
    repeat an earlier one, whose rows equal that one's."""
    rng = random.Random(f"row-values/{concept}")
    labels = set()
    omitted = 0
    for label, inst, a, mix in cases():
        if mix:
            support = [S for S, _ in mix.to_joint(inst).support]
            samples = (support, support[1:])
            count, inst = inst, formula_copy(inst)
        else:
            everything = list(range(1 << inst.m))
            samples = (everything, rng.sample(everything, min(5, len(everything))))
        for profiles in samples:
            got = list(regret_rows(inst, a, concept, profiles,
                                   inst.reward.value_pair))
            if mix:
                omitted += check_class_reduction(count, a, concept, profiles, got)
            want = expected_rows(inst, profiles, concept)
            assert [row[:3] for row in got] == [row[:3] for row in want], label
            for (*_, members, follow, deviate, _), (*_, want_members) in zip(got, want):
                assert list(members) == sorted(want_members), label
                assert isinstance(members, range) == (len(members) == len(profiles))
                assert len(follow) == len(deviate) == len(members)
            for (i, _, T, follow, deviate, scale), (*_, members) in zip(
                    padded(got, len(profiles)), want):
                assert type(scale) is int and scale > 0
                mask = inst.agent_mask(i)
                for k, S in enumerate(profiles):
                    assert type(follow[k]) is int and type(deviate[k]) is int
                    if k not in members:
                        assert follow[k] == deviate[k] == 0
                        continue
                    assert F(follow[k], scale) == utility(inst, a, i, S)
                    assert F(deviate[k], scale) == utility(inst, a, i, (S & ~mask) | T)
            labels.add(label)
    assert any("free" in label for label in labels)
    assert any("nine-digit" in label for label in labels)
    assert any("gap" in label for label in labels)
    # n = 4 and 9, two supports each: all but one agent of each half
    assert omitted == 2 * (6 + 16)


def reference_lp(inst, a, concept, sense):
    """The equilibrium LP with Fraction rows built from scratch, in the row
    order of ``regret_rows``: agents in order, CE recommendations ascending."""
    profiles = range(1 << inst.m)
    f = [inst.reward.value(S) for S in profiles]
    rows = []
    for i, _, T, members in expected_rows(inst, list(profiles), concept):
        mask = inst.agent_mask(i)
        coeffs = tuple(utility(inst, a, i, S) - utility(inst, a, i, (S & ~mask) | T)
                       if S in members else F(0) for S in profiles)
        rows.append((coeffs, ">=", F(0)))
    rows.append(((F(1),) * len(f), "=", F(1)))
    return f, solve_lp(LinearProgram(objective=tuple(f), sense=sense, rows=tuple(rows)))


@pytest.mark.parametrize("name, solver, concept, sense", [
    ("best_cce", best_cce, "cce", "max"),
    ("worst_cce", worst_cce, "cce", "min"),
    ("best_ce", best_ce, "ce", "max"),
])
def test_lp_matches_fraction_reference(name, solver, concept, sense):
    checked = 0
    for label, inst, a, mix in cases():
        if mix:
            continue  # 2^10 and 2^20 profiles: past a dense LP's reach
        f, ref = reference_lp(inst, a, concept, sense)
        assert ref.status == "optimal"
        dist, util = solver(inst, a)
        assert dist.support == tuple((S, p) for S, p in enumerate(ref.x) if p), label
        assert dist.expected_reward(inst) == ref.value
        assert util == (1 - a.total()) * ref.value
        checked += 1
    assert checked == 33


def product_form_verdict(inst, P, a, tol=0):
    """is_mne's verdict from the product form: agent i's expected utility
    following P_i, against committing to each slice T, with the other agents'
    mixtures summed out one agent at a time (the joint table is never built)."""

    def others(i, fn, j=0, S=0):
        if j == inst.n:
            return fn(S)
        if j == i:
            return others(i, fn, j + 1, S)
        return sum((p * others(i, fn, j + 1, S | s) for s, p in P.per_agent[j]), F(0))

    for i in range(inst.n):
        mask = inst.agent_mask(i)
        value = {}  # T -> a_i E_{-i}[f(S_-i | T)] - c(T)
        for T in submasks(mask):
            value[T] = others(i, lambda S: utility(inst, a, i, S | T))
        follow = sum((p * value[s] for s, p in P.per_agent[i]), F(0))
        for T in submasks(mask):
            if value[T] > follow + tol:
                return Verdict(False, agent=i, deviation=T, lhs=follow, rhs=value[T])
    return Verdict(True)


def random_product(inst, rng):
    per_agent = []
    for i in range(inst.n):
        slices = rng.sample(list(submasks(inst.agent_mask(i))),
                            rng.randint(1, 1 << inst.agent_mask(i).bit_count()))
        weights = [rng.randint(1, 9) for _ in slices]
        per_agent.append(tuple((s, F(w, sum(weights))) for s, w in zip(slices, weights)))
    return ProductDistribution(tuple(per_agent))


def test_is_mne_matches_product_form():
    rng = random.Random("product-form")
    held = failed = 0
    for label, inst, a, mix in cases():
        for _ in range(4):
            if mix is None:
                P, c = random_product(inst, rng), a
            else:  # the C3 mix under half, the same or 3/2 times its shares
                P, c = mix, Contract(tuple(v * rng.randint(1, 3) / 2 for v in a.alpha))
            for tol in (None, F(1, 2)):
                verdict = is_mne(inst, P, c, tol=tol)
                assert verdict == product_form_verdict(inst, P, c, tol or 0), label
                held += bool(verdict)
                failed += not verdict
    assert held and failed
    inst = separation_example()
    a, P = separation_mne()
    assert is_mne(inst, P, a) == product_form_verdict(inst, P, a) == Verdict(True)
    a, P = golden_ratio_mne(20)
    inst = golden_ratio_instance(20)
    tol = F(1, 10 ** 15)
    assert is_mne(inst, P, a, tol=tol) == product_form_verdict(inst, P, a, tol)


VERIFIERS = [
    lambda inst, a, P, tol: is_cce(inst, P.to_joint(inst), a, tol=tol),
    lambda inst, a, P, tol: is_ce(inst, P.to_joint(inst), a, tol=tol),
    lambda inst, a, P, tol: is_dropout_stable(inst, P.to_joint(inst), a, tol=tol),
    lambda inst, a, P, tol: is_mne(inst, P, a, tol=tol),
    lambda inst, a, P, tol: is_pne(inst, 0b11, a, tol=tol),
]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.5, 0.0, -1,
                                 F(-1, 10 ** 6), "1/2"])
@pytest.mark.parametrize("verify", VERIFIERS)
def test_tolerance_must_be_an_exact_nonnegative_rational(verify, tol):
    inst = separation_example()
    a, P = separation_mne()
    with pytest.raises(ValueError):
        verify(inst, a, P, tol)


@pytest.mark.parametrize("verify", VERIFIERS)
def test_zero_tolerance_is_exact(verify):
    inst = separation_example()
    a, P = separation_mne()
    for tol in (0, F(0)):
        assert verify(inst, a, P, tol) == verify(inst, a, P, None)

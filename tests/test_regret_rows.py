"""The regret rows shared by the verifiers, the LP benchmarks and the samplers,
checked against regret sums written out by brute force."""
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from contractlab.core import CapacityError, Contract
from contractlab.equilibria import (
    JointDistribution,
    Verdict,
    is_ce,
    is_cce,
    is_dropout_stable,
    is_mne,
    is_pne,
    regret_rows,
    value_pairs,
)
from contractlab.fixtures import (
    claim_c3_mne,
    random_contract,
    random_instance,
    sample_ce,
    sample_cce,
    sample_dropout_stable,
    subadditive_gap_instance,
)
from contractlab.rewards import FormulaReward

KINDS = ("additive", "coverage", "xos", "supermodular", "table")
VERIFIERS = {"cce": is_cce, "ce": is_ce, "dropout": is_dropout_stable}


def subsets(mask):
    return [T for T in range(mask + 1) if T & ~mask == 0]


def regret(inst, support, a, i, T, rec=None):
    """(utility following, utility deviating to T) of agent i in expectation,
    over the profiles recommending rec to i when rec is given."""
    mask = inst.agent_mask(i)
    follow = deviate = F(0)
    for S, p in support:
        if rec is not None and S & mask != rec:
            continue
        follow += p * (a[i] * inst.reward.value(S) - inst.cost(S & mask))
        deviate += p * (a[i] * inst.reward.value((S & ~mask) | T) - inst.cost(T))
    return follow, deviate


def rows_in_order(inst, support, concept):
    """(agent, recommendation, deviation) of every row, in the verifiers' order."""
    rows = []
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        if concept == "dropout":
            rows.append((i, None, 0))
        elif concept == "cce":
            rows += [(i, None, T) for T in subsets(mask)]
        else:
            recs = []
            for S, _ in support:
                if S & mask not in recs:
                    recs.append(S & mask)
            rows += [(i, R, T) for R in recs for T in subsets(mask) if T != R]
    return rows


def supports_for(inst, a, rng):
    """Sampled equilibria (mostly passing) and random supports (mostly failing)."""
    base = rng.randrange(1 << 30)
    out = [sample_cce(inst, a, random.Random(base)).support,
           sample_ce(inst, a, random.Random(base + 1)).support,
           sample_dropout_stable(inst, a, random.Random(base + 2)).support]
    for _ in range(5):
        profiles = rng.sample(range(1 << inst.m), rng.randint(1, min(5, 1 << inst.m)))
        weights = [rng.randint(1, 9) for _ in profiles]
        out.append(tuple((S, F(w, sum(weights))) for S, w in zip(profiles, weights)))
    return [JointDistribution(s) for s in out]


@pytest.mark.parametrize("kind", KINDS)
def test_verdicts_match_brute_force_regret(kind):
    rng = random.Random(f"rows/{kind}")
    failed = held = 0
    pne_failed, pne_held = {None: 0, F(1): 0}, {None: 0, F(1): 0}
    for sizes in ([2, 1], [1, 1, 1], [2, 2]):
        inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
        a = random_contract(inst.n, rng)
        for D in supports_for(inst, a, rng):
            for concept, verify in VERIFIERS.items():
                verdict = verify(inst, D, a)
                violated = []
                for i, rec, T in rows_in_order(inst, D.support, concept):
                    follow, deviate = regret(inst, D.support, a, i, T, rec)
                    if deviate > follow:
                        violated.append((i, rec, T, follow, deviate))
                assert bool(verdict) == (not violated), (concept, D)
                if verdict:
                    held += 1
                    continue
                failed += 1
                i, rec, T, follow, deviate = violated[0]
                assert (verdict.agent, verdict.recommendation, verdict.deviation) \
                    == (i, rec, T)
                assert (verdict.lhs, verdict.rhs) == (follow, deviate)
                if concept == "ce":
                    assert verdict.recommendation is not None
        # a PNE is the point mass on S meeting its CE rows; with tol = 1 a
        # row fails only when deviating gains more than 1
        for tol in (None, F(1)):
            for S in range(1 << inst.m):
                point = ((S, F(1)),)
                eps = tol or 0
                violated = []
                for i, rec, T in rows_in_order(inst, point, "ce"):
                    follow, deviate = regret(inst, point, a, i, T, rec)
                    if deviate > follow + eps:
                        violated.append((i, T, follow, deviate))
                verdict = is_pne(inst, S, a, tol=tol)
                assert verdict.recommendation is None
                if not violated:
                    assert verdict == Verdict(True)
                    pne_held[tol] += 1
                    continue
                pne_failed[tol] += 1
                assert verdict == Verdict(False, *violated[0][:2],
                                          lhs=violated[0][2], rhs=violated[0][3])
    assert failed and held
    assert all(pne_failed.values()) and all(pne_held.values())
    assert pne_held[F(1)] > pne_held[None]


@pytest.mark.parametrize("sizes", [[1, 1], [2, 1], [3, 1, 2], [2, 2, 2]])
def test_row_counts_per_concept(sizes):
    inst = random_instance("additive", 5, len(sizes), sizes)
    a = random_contract(inst.n, random.Random(5))
    profiles = list(range(1 << inst.m))
    counts = {concept: sum(1 for _ in regret_rows(inst, a, concept, profiles,
                                                  value_pairs(inst.reward)))
              for concept in ("cce", "ce", "dropout")}
    assert counts["cce"] == sum(2 ** k for k in sizes)
    assert counts["ce"] == sum(2 ** k * (2 ** k - 1) for k in sizes)
    assert counts["dropout"] == inst.n


def test_rows_reject_unknown_concept():
    inst = random_instance("additive", 1, 2, 1)
    with pytest.raises(ValueError):
        next(regret_rows(inst, random_contract(2, random.Random(1)), "pne",
                         [0], value_pairs(inst.reward)))


def test_samplers_respect_profile_cap(monkeypatch):
    inst = random_instance("additive", 3, 5, 1)
    a = random_contract(inst.n, random.Random(3))
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,16")
    for sampler in (sample_cce, sample_ce, sample_dropout_stable):
        with pytest.raises(CapacityError):
            sampler(inst, a, random.Random(0))


@pytest.mark.parametrize("n", [4, 9, 25, 729])
def test_gap_verifiers_read_each_profile_once(n):
    """On the gap instance's C3 support (4 profiles), is_mne and
    is_dropout_stable call f once per distinct profile they read: the 4
    support profiles, and each of them without each of the 2n paid actions."""
    inst = subadditive_gap_instance(n)
    a, P = claim_c3_mne(inst, n)
    calls = []
    counted = replace(inst, reward=FormulaReward(
        inst.m, lambda S: calls.append(S) or inst.reward.fn(S)))
    joint = P.to_joint(inst)
    half = Contract(tuple(v / 2 for v in a.alpha))
    for verify in (lambda c: is_mne(counted, P, c),
                   lambda c: is_dropout_stable(counted, joint, c)):
        for contract in (a, half):
            calls.clear()
            verdict = verify(contract)
            assert calls and len(calls) == len(set(calls))
            if verdict:
                assert len(calls) == 8 * n + 4

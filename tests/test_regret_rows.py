"""The regret rows shared by the verifiers, the LP benchmarks and the samplers,
checked against regret sums written out by brute force."""
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from contractlab.core import CapacityError, Contract, agent_utility, make_instance
from contractlab.equilibria import (
    JointDistribution,
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
    random_contract,
    random_instance,
    sample_ce,
    sample_cce,
    sample_dropout_stable,
    subadditive_gap_instance,
)
from contractlab.rewards import AdditiveReward, FormulaReward, TableReward
from contractlab.solvers import best_cce, best_ce, worst_cce
from padded_rows import padded

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


def violations(inst, support, a, concept, tol=None):
    """(agent, recommendation, deviation, follow, deviate) of every row that
    ``support`` violates by more than ``tol``, in the verifiers' order."""
    eps = tol or 0
    found = []
    for i, rec, T in rows_in_order(inst, support, concept):
        follow, deviate = regret(inst, support, a, i, T, rec)
        if deviate > follow + eps:
            found.append((i, rec, T, follow, deviate))
    return found


def counting(inst):
    """``inst`` with a reward that records every profile f is read at, and
    the list it records into."""
    calls = []
    reward = inst.reward
    fn = reward.fn if isinstance(reward, FormulaReward) else reward.value
    return replace(inst, reward=FormulaReward(
        inst.m, lambda S: calls.append(S) or fn(S))), calls


def pinned_products(inst, rng, count):
    """Product distributions with one slice for a random subset of the
    agents (pinned) and two or more mixed slices for the rest."""
    for _ in range(count):
        per_agent = []
        for i in range(inst.n):
            slices = subsets(inst.agent_mask(i))
            chosen = rng.sample(slices, 1 if rng.random() < 0.5
                                else rng.randint(2, len(slices)))
            weights = [rng.randint(1, 5) for _ in chosen]
            per_agent.append(tuple((T, F(w, sum(weights)))
                                   for T, w in zip(chosen, weights)))
        yield ProductDistribution(tuple(per_agent))


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
                violated = violations(inst, D.support, a, concept)
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
                violated = violations(inst, point, a, "ce", tol)
                verdict = is_pne(inst, S, a, tol=tol)
                assert verdict.recommendation is None
                if not violated:
                    assert verdict == Verdict(True)
                    pne_held[tol] += 1
                    continue
                pne_failed[tol] += 1
                i, _, T, follow, deviate = violated[0]
                assert verdict == Verdict(False, i, T, lhs=follow, rhs=deviate)
    assert failed and held
    assert all(pne_failed.values()) and all(pne_held.values())
    assert pne_held[F(1)] > pne_held[None]


@pytest.mark.parametrize("kind", KINDS)
def test_pinned_supports_match_brute_force_and_full_rows(kind):
    """Supports on which some agents play one slice on every profile (their
    rows are read without the profile dict): the verdicts and witnesses
    match the brute-force regret sums with tol None and 1, f is read once
    per distinct profile, and every row entry over its scale equals the
    entry of the same (agent, recommendation, deviation, profile) in the
    rows over all 2^m profiles."""
    rng = random.Random(f"pinned/{kind}")
    held = failed = 0
    for sizes in ([2, 1], [2, 2], [1, 1, 1], [2, 2, 1]):
        inst = random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
        counted, calls = counting(inst)
        a = random_contract(inst.n, rng)
        table = inst.reward.table()
        for P in pinned_products(inst, rng, 6):
            D = P.to_joint(inst)
            profiles = [S for S, _ in D.support]
            for concept, verify in VERIFIERS.items():
                for tol in (None, F(1)):
                    calls.clear()
                    verdict = verify(counted, D, a, tol=tol)
                    assert len(calls) == len(set(calls))
                    violated = violations(inst, D.support, a, concept, tol)
                    assert bool(verdict) == (not violated), (concept, tol, D)
                    if verdict:
                        held += 1
                        continue
                    failed += 1
                    i, rec, T, follow, deviate = violated[0]
                    assert (verdict.agent, verdict.recommendation, verdict.deviation,
                            verdict.lhs, verdict.rhs) == (i, rec, T, follow, deviate)
                full = {(i, rec, T): (follow, deviate, scale)
                        for i, rec, T, follow, deviate, scale in padded(regret_rows(
                            inst, a, concept, range(1 << inst.m), table.__getitem__),
                            1 << inst.m)}
                rows = list(padded(regret_rows(inst, a, concept, profiles,
                                               inst.reward.value_pair), len(profiles)))
                assert [row[:3] for row in rows] \
                    == rows_in_order(inst, D.support, concept)
                for i, rec, T, follow, deviate, scale in rows:
                    all_follow, all_deviate, all_scale = full[i, rec, T]
                    assert len(follow) == len(deviate) == len(profiles)
                    for k, S in enumerate(profiles):
                        assert F(follow[k], scale) == F(all_follow[S], all_scale)
                        assert F(deviate[k], scale) == F(all_deviate[S], all_scale)
    assert held and failed


@pytest.mark.parametrize("sizes", [[1, 1], [2, 1], [3, 1, 2], [2, 2, 2]])
def test_row_counts_per_concept(sizes):
    inst = random_instance("additive", 5, len(sizes), sizes)
    a = random_contract(inst.n, random.Random(5))
    profiles = list(range(1 << inst.m))
    counts = {concept: sum(1 for _ in regret_rows(inst, a, concept, profiles,
                                                  inst.reward.value_pair))
              for concept in ("cce", "ce", "dropout")}
    assert counts["cce"] == sum(2 ** k for k in sizes)
    assert counts["ce"] == sum(2 ** k * (2 ** k - 1) for k in sizes)
    assert counts["dropout"] == inst.n


def test_rows_reject_unknown_concept():
    inst = random_instance("additive", 1, 2, 1)
    with pytest.raises(ValueError):
        next(regret_rows(inst, random_contract(2, random.Random(1)), "pne",
                         [0], inst.reward.value_pair))


@pytest.mark.parametrize("concept", ["ce", "cce", "dropout"])
@pytest.mark.parametrize("profiles", [[0b10, 0b10], [0b01, 0b10, 0b01]])
def test_rows_reject_repeated_profiles(concept, profiles):
    """Positions in the rows are positions in ``profiles``: a repeated
    profile would misplace the deviations' reads, so it is refused."""
    inst = random_instance("additive", 1, 2, 1)
    with pytest.raises(ValueError, match="distinct profiles"):
        next(regret_rows(inst, random_contract(2, random.Random(1)), concept,
                         profiles, inst.reward.value_pair))


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
    support profiles, and each of them without each of the 2n paid actions.
    So does is_pne on each support profile, a point mass, and so do the
    verifiers on supports of small instances on which some agents play one
    slice on every profile."""
    inst = subadditive_gap_instance(n)
    a, P = claim_c3_mne(inst, n)
    counted, calls = counting(inst)
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
    for S, _ in joint.support:
        for contract in (a, half):
            calls.clear()
            is_pne(counted, S, contract)
            assert calls and len(calls) == len(set(calls))
    rng = random.Random(n)
    for kind in KINDS:
        small = random_instance(kind, rng.randrange(1 << 30), 3, [2, 2, 1])
        counted, calls = counting(small)
        c = random_contract(small.n, rng)
        for Q in pinned_products(small, rng, 3):
            D = Q.to_joint(small)
            for verify in VERIFIERS.values():
                calls.clear()
                verify(counted, D, c)
                assert calls and len(calls) == len(set(calls))
            for S, _ in D.support:
                calls.clear()
                is_pne(counted, S, c)
                assert calls and len(calls) == len(set(calls))


def written_out(inst, a, concept, profiles):
    """Every row over ``profiles`` as (agent, recommendation, deviation,
    follow, deviate), its entries the utilities as Fractions, written out
    profile by profile."""
    out = []
    for i, rec, T in rows_in_order(inst, [(S, None) for S in profiles], concept):
        mask = inst.agent_mask(i)
        follow, deviate = [], []
        for S in profiles:
            inside = rec is None or S & mask == rec
            follow.append(a[i] * inst.reward.value(S) - inst.cost(S & mask)
                          if inside else F(0))
            deviate.append(a[i] * inst.reward.value((S & ~mask) | T) - inst.cost(T)
                           if inside else F(0))
        out.append((i, rec, T, follow, deviate))
    return out


@pytest.mark.parametrize("actions", [[[1], []], [[], [F(1, 2)], [1, F(1, 3)]]])
def test_agents_without_actions_and_empty_supports(actions):
    """An agent that owns no actions plays the empty slice on every profile.
    Its rows, in LP mode, on supports and on an empty support, match the
    utilities written out profile by profile, and on a support f is read
    once per distinct profile. The LPs and the verifiers run on such an
    instance."""
    m = sum(map(len, actions))
    inst = make_instance(actions, AdditiveReward([F(k + 2, k + 1) for k in range(m)]))
    counted, calls = counting(inst)
    a = Contract(tuple(F(1, 4 + i) for i in range(inst.n)))
    table = inst.reward.table()
    everything = range(1 << m)
    supports = [[], list(everything), [everything[-1], 0]] + [[S] for S in everything]
    if m == 3:
        # by hand: agent 2 (actions 1 and 2) has rest {0} on {0} and on
        # {0, 1}, so its CCE group reads each deviation {0} | T twice, and
        # its deviation to {1} from {0} is the support profile {0, 1}
        supports.append([0b001, 0b011, 0b100])
    for concept in VERIFIERS:
        for profiles, f in [(everything, table.__getitem__)] + [
                (profiles, counted.reward.value_pair) for profiles in supports]:
            calls.clear()
            rows = [(i, rec, T, [F(v, scale) for v in follow],
                     [F(v, scale) for v in deviate])
                    for i, rec, T, follow, deviate, scale in padded(regret_rows(
                        inst, a, concept, profiles, f), len(profiles))]
            assert rows == written_out(inst, a, concept, list(profiles))
            assert len(calls) == len(set(calls))
        for S in everything:
            violated = violations(inst, ((S, F(1)),), a, concept)
            assert bool(VERIFIERS[concept](inst, JointDistribution(((S, F(1)),)), a)) \
                == (not violated)
    for S in everything:
        assert bool(is_pne(inst, S, a)) == (not violations(inst, ((S, F(1)),), a, "ce"))
    for lp, verify in ((best_cce, is_cce), (worst_cce, is_cce), (best_ce, is_ce)):
        D, utility = lp(inst, a)
        assert verify(inst, D, a)
        assert utility == (1 - a.total()) * sum(p * inst.reward.value(S)
                                                for S, p in D.support)


def brute_verdict(inst, support, a, concept, tol):
    """The first row of ``concept`` that ``support`` violates by more than
    ``tol``, as a Verdict, summed profile by profile from ``agent_utility``."""
    for i, rec, T in rows_in_order(inst, support, concept):
        mask = inst.agent_mask(i)
        follow = deviate = F(0)
        for S, p in support:
            if rec is None or S & mask == rec:
                follow += p * agent_utility(inst, S, a, i)
                deviate += p * agent_utility(inst, (S & ~mask) | T, a, i)
        if deviate > follow + (tol or 0):
            return Verdict(False, i, T, rec, follow, deviate)
    return Verdict(True)


# per layout: each agent's action costs and the index of its share among
# three drawn shares. Agents 0, 2, 3 and 4 own one action each and play one
# slice on every support below (their action or nothing); agent 1 owns two
# and mixes, between 0 and 2
LAYOUTS = [
    # 0, 2 and 4 alike; 3 differs from them only in its cost
    ([[1], [1, 2], [1], [2], [1]], [0, 1, 0, 0, 0]),
    # 0, 2 and 4 alike; 3 differs from them only in its share
    ([[1], [2, 1], [1], [1], [1]], [0, 1, 0, 2, 0]),
    # agent 1 has the share of 0 and 2; 3 differs from them only in its
    # cost, 4 only in its share
    ([[F(1, 2)], [F(1, 2), 1], [F(1, 2)], [F(1, 3)], [F(1, 2)]], [0, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("layout", range(len(LAYOUTS)))
def test_pinned_agents_around_a_varying_agent_match_brute_force(layout):
    """Pinned agents with equal shares and slice costs share their rows'
    follow list; a varying agent between them has rows of its own. Every
    verifier's full Verdict (agent, deviation, recommendation, lhs, rhs)
    equals a brute-force check written profile by profile, with and
    without a tolerance, on integer rewards (where the pinned agents' lcm
    agrees) and on rewards over several denominators."""
    costs, share_of = LAYOUTS[layout]
    rng = random.Random(f"pinned-around/{layout}")
    held = failed = 0
    for trial in range(40):
        den = 1 if trial % 2 else rng.choice([2, 3, 6])
        reward = TableReward([0] + [F(rng.randint(0, 40 * den), den) * S.bit_count()
                                    for S in range(1, 64)])
        inst = make_instance(costs, reward)
        shares = [F(rng.randint(1, 12), rng.choice([12, 20, 30])) for _ in range(3)]
        a = Contract(tuple(shares[k] for k in share_of))
        pinned = 0
        for i in (0, 2, 3, 4):
            if rng.random() < 0.8:
                pinned |= inst.agent_mask(i)
        middle = [T for T in subsets(inst.agent_mask(1)) if rng.random() < 0.7] or [0]
        weights = [rng.randint(1, 4) for _ in middle]
        mixed = tuple((T, F(w, sum(weights))) for T, w in zip(middle, weights))
        P = ProductDistribution(tuple(mixed if i == 1 else
                                      ((pinned & inst.agent_mask(i), F(1)),)
                                      for i in range(inst.n)))
        D = P.to_joint(inst)
        for tol in (None, F(1, 7)):
            for S, _ in D.support:
                expected = brute_verdict(inst, ((S, F(1)),), a, "ce", tol)
                assert is_pne(inst, S, a, tol=tol) \
                    == replace(expected, recommendation=None), (S, tol)
            verdicts = [(concept, verify(inst, D, a, tol=tol))
                        for concept, verify in VERIFIERS.items()]
            verdicts.append(("cce", is_mne(inst, P, a, tol=tol)))
            for concept, verdict in verdicts:
                assert verdict == brute_verdict(inst, D.support, a, concept, tol), \
                    (trial, concept, tol)
                held += bool(verdict)
                failed += not verdict
    assert held and failed

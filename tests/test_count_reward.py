"""``CountReward``: f read through the counts of its orbits, its refusals,
and the verifiers' class reduction on it. A fixed one-action agent whose
orbit, slice, share and cost repeat an earlier agent's gets no rows of its
own; every verdict, witness included, is the one a plain ``FormulaReward``
of the same f gives."""
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from contractlab import CountReward as Exported
from contractlab.core import Contract, make_instance, mask_of, submasks
from contractlab.equilibria import (
    JointDistribution,
    ProductDistribution,
    is_ce,
    is_cce,
    is_dropout_stable,
    is_mne,
    is_pne,
)
from contractlab.fixtures import claim_c3_mne, subadditive_gap_instance
from contractlab.rewards import CountReward, FormulaReward


def test_f_reads_only_the_counts():
    assert Exported is CountReward
    calls = []
    f = CountReward(5, [0b00011, 0b11100], lambda *c: calls.append(c) or F(c[0], 1 + c[1]))
    assert isinstance(f, FormulaReward) and f.orbit_of == (0, 0, 1, 1, 1)
    assert [f.value(S) for S in (0, 0b01, 0b10, 0b10110, 0b11111)] == \
        [0, 1, 1, F(1, 3), F(2, 4)]
    assert calls == [(0, 0), (1, 0), (1, 0), (1, 2), (2, 3)]
    assert f.value_pair(0b10110) == (1, 3)
    assert f.table(0b00110, 0b01000) == [(0, 1), (1, 2), (0, 1), (1, 3)]


@pytest.mark.parametrize("m, orbits, match", [
    (3, [0b011, 0b110], "action 1 is in orbits 0 and 1"),
    (3, [0b001, 0b010], "action 2 is in no orbit"),
    (2, [0b11, 0], r"orbit 1 \(0x0\) is empty"),
    (2, [0b01, 0b110], r"orbit 1 \(0x6\) .* outside the 2 actions"),
    (2, [0b01, -2], "orbit 1"),
])
def test_orbits_must_partition_the_actions(m, orbits, match):
    with pytest.raises(ValueError, match=match):
        CountReward(m, orbits, lambda *counts: 0)


def test_a_float_from_g_is_refused():
    f = CountReward(2, [0b01, 0b10], lambda x, y: 0.5 * (x + y))
    for read in (f.value, f.value_pair):
        with pytest.raises(TypeError, match="float"):
            read(0b11)
    with pytest.raises(TypeError, match="float"):
        f.table()
    with pytest.raises(TypeError):
        CountReward(2, [0b01, 0.5], lambda x, y: 0)


@pytest.mark.parametrize("n", [4, 25, 729])
def test_gap_verifiers_read_f_twelve_times(n):
    """At the C3 contract, on the C3 support, is_mne and is_dropout_stable
    read the 4 support profiles and, for the first paid agent of each half,
    each of them without that agent's action: 12 reads at every n (8n + 4
    on the plain formula reward)."""
    inst = subadditive_gap_instance(n)
    calls = []
    g = inst.reward.g
    spied = replace(inst, reward=CountReward(
        inst.m, inst.reward.orbits, lambda *counts: calls.append(counts) or g(*counts)))
    a, P = claim_c3_mne(spied, n)
    joint = P.to_joint(spied)
    for verify in (lambda: is_mne(spied, P, a),
                   lambda: is_dropout_stable(spied, joint, a)):
        calls.clear()
        assert verify()
        assert len(calls) == 12


def count_instance(rng):
    """A seeded count-reward instance and contract: 3-7 actions in 2-3
    orbits, g a random Fraction table over the count vectors, one agent per
    action, except that the first agent sometimes owns two. On each orbit
    the agents have one share and one cost, different shares, different
    costs, or both different."""
    m = rng.randint(3, 7)
    k = rng.randint(2, 3)
    labels = list(range(k)) + [rng.randrange(k) for _ in range(m - k)]
    rng.shuffle(labels)
    orbits = [mask_of(j for j in range(m) if labels[j] == o) for o in range(k)]
    table = {}  # monotone: each count vector adds to the largest one below it
    for counts in product(*(range(o.bit_count() + 1) for o in orbits)):
        below = [table[counts[:o] + (c - 1,) + counts[o + 1:]]
                 for o, c in enumerate(counts) if c]
        table[counts] = max(below, default=0) + F(rng.randint(0, 6), rng.randint(1, 3))
    reward = CountReward(m, orbits, lambda *counts: table[counts])
    modes = [rng.randrange(4) for _ in orbits]
    base = [(F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 2)) for _ in orbits]

    def draw(j):
        """(share, cost) of the agent of action j, by its orbit's mode."""
        mode, (share, cost) = modes[labels[j]], base[labels[j]]
        return (F(rng.randint(0, 4), 4) if mode & 1 else share,
                F(rng.randint(0, 4), 2) if mode & 2 else cost)

    agents = [[j] for j in range(m)]
    if rng.random() < 0.3:
        agents[:2] = [[0, 1]]
    shares, costs = [], []
    for actions in agents:
        drawn = [draw(j) for j in actions]
        shares.append(drawn[0][0])
        costs.append([cost for _, cost in drawn])
    return make_instance(costs, reward), Contract(tuple(shares))


def products(inst, rng, count):
    """Product distributions with each agent pinned to one slice with
    probability 3/5, mixed over two or more otherwise."""
    for _ in range(count):
        per_agent = []
        for i in range(inst.n):
            slices = list(submasks(inst.agent_mask(i)))
            chosen = rng.sample(slices, 1 if rng.random() < 0.6
                                else rng.randint(2, len(slices)))
            weights = [rng.randint(1, 5) for _ in chosen]
            per_agent.append(tuple((T, F(w, sum(weights)))
                                   for T, w in zip(chosen, weights)))
        yield ProductDistribution(tuple(per_agent))


def supports(inst, rng, count):
    """Joint distributions on 1-4 random profiles."""
    for _ in range(count):
        profiles = rng.sample(range(1 << inst.m), rng.randint(1, min(4, 1 << inst.m)))
        weights = [rng.randint(1, 9) for _ in profiles]
        yield JointDistribution(tuple((S, F(w, sum(weights)))
                                      for S, w in zip(profiles, weights)))


def verdicts(inst, a, rng):
    """Every verifier's verdict on point masses, pinned products and random
    supports drawn from ``rng``."""
    out = [is_pne(inst, rng.randrange(1 << inst.m), a) for _ in range(12)]
    for P in products(inst, rng, 3):
        D = P.to_joint(inst)
        out += [is_mne(inst, P, a), is_cce(inst, D, a), is_ce(inst, D, a),
                is_dropout_stable(inst, D, a)]
    for D in supports(inst, rng, 3):
        out += [is_cce(inst, D, a), is_ce(inst, D, a), is_dropout_stable(inst, D, a)]
    return out


def test_verdicts_match_the_plain_formula_reward():
    """Each verdict on a count reward, witness included, equals the one on a
    plain formula reward of the same f, which writes every agent's rows; the
    count reward reads f fewer times over the run."""
    rng = random.Random("count-classes")
    reads = {"count": 0, "formula": 0}
    held = failed = 0
    for seed in range(120):
        inst, a = count_instance(random.Random(seed))
        g, fn = inst.reward.g, inst.reward.fn
        count = replace(inst, reward=CountReward(
            inst.m, inst.reward.orbits, lambda *c: reads.update(count=reads["count"] + 1)
            or g(*c)))
        formula = replace(inst, reward=FormulaReward(
            inst.m, lambda S: reads.update(formula=reads["formula"] + 1) or fn(S)))
        draw = rng.randrange(1 << 30)
        got = verdicts(count, a, random.Random(draw))
        assert got == verdicts(formula, a, random.Random(draw)), seed
        held += sum(map(bool, got))
        failed += sum(not v for v in got)
    assert held > 300 and failed > 300
    assert reads["count"] < reads["formula"]

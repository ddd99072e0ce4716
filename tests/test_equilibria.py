import itertools
import random
from fractions import Fraction as F

import pytest

from contractlab.core import (
    CapacityError,
    Contract,
    bits_of,
    make_instance,
    potential,
    submasks,
)
from contractlab.equilibria import (
    JointDistribution,
    ProductDistribution,
    best_response_dynamics,
    is_cce,
    is_ce,
    is_dropout_stable,
    is_mne,
    is_pne,
    potential_maximizer_pne,
)
from contractlab.rewards import AdditiveReward
from contractlab.fixtures import (
    random_contract,
    random_instance,
    sample_cce,
    sample_ce,
    separation_example,
    separation_mne,
    supermodular_cce_gap_instance,
    supermodular_gap_cce,
)
from contractlab.solvers import best_cce


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(())
    with pytest.raises(ValueError):
        JointDistribution(((0, F(1, 2)), (0, F(1, 2))))
    with pytest.raises(ValueError):
        JointDistribution(((0, F(1, 3)),))
    D = JointDistribution(((3, F(1, 2)), (0, F(1, 2))))
    assert D.support[0][0] == 0  # canonical order


def test_product_expansion():
    inst = separation_example()
    _, P = separation_mne()
    J = P.to_joint(inst)
    assert dict(J.support)[0b11] == F(81, 100)
    assert J.expected_reward(inst) == F(972, 5)  # 194.4


def test_product_rejects_foreign_slice():
    inst = separation_example()
    P = ProductDistribution((((0b10, F(1)),), ((0b10, F(1)),)))
    with pytest.raises(ValueError):
        P.to_joint(inst)


def expanded(per_agent):
    """The support of a product distribution, brute force: every combination
    of one entry per agent, ORed and multiplied, sorted by profile."""
    support = []
    for combo in itertools.product(*per_agent):
        S, p = 0, F(1)
        for mask, q in combo:
            S, p = S | mask, p * q
        support.append((S, p))
    return tuple(sorted(support))


def test_product_expansion_matches_brute_force():
    # agents 0-3 own 2, 0, 1 and 2 actions; agent 1 can only play 0
    inst = make_instance([[1, 2], [], [3], [4, 5]],
                         AdditiveReward([F(k + 1) for k in range(5)]))
    half, third = F(1, 2), F(1, 3)
    pure = [((0b11, F(1)),), ((0, F(1)),), ((0b100, F(1)),), ((0b01000, F(1)),)]
    mixed = [((0b01, half), (0b10, half)), None,
             ((0, third), (0b100, 1 - third)),
             ((0b11000, F(1, 6)), (0, F(1, 2)), (0b10000, third))]
    cases = {
        "every agent pure": pure,
        "every agent that owns an action mixed": [pure[1] if m is None else m
                                                  for m in mixed],
        "pure first": [pure[0], pure[1], mixed[2], mixed[3]],
        "pure last": [mixed[0], pure[1], mixed[2], pure[3]],
        "pure between mixed": [mixed[0], pure[1], pure[2], mixed[3]],
    }
    for name, per_agent in cases.items():
        support = ProductDistribution(tuple(per_agent)).to_joint(inst).support
        assert support == expanded(per_agent), name
        assert all(type(p) is F for _, p in support), name


def test_product_expansion_errors_keep_their_messages(monkeypatch):
    inst = separation_example()
    one = ((0b01, F(1, 2)), (0, F(1, 2)))
    with pytest.raises(ValueError, match="^agent count mismatch$"):
        ProductDistribution((one,)).to_joint(inst)
    with pytest.raises(ValueError, match="^slice 0x2 not owned by agent 0$"):
        ProductDistribution((((0b10, F(1)),), ((0b10, F(1)),))).to_joint(inst)
    P = ProductDistribution((one, ((0b10, F(1, 2)), (0, F(1, 2)))))
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,3")
    with pytest.raises(CapacityError,
                       match="^product distribution: 4 profiles exceeds profile cap$"):
        P.to_joint(inst)


def test_is_pne_separation():
    inst = separation_example()
    assert is_pne(inst, 0b11, Contract.of(["1/20", "1/20"]))
    assert is_pne(inst, 0, Contract.zero(2))
    v = is_pne(inst, 0b11, Contract.of(["1/36", "1/36"]))
    assert not v and v.agent == 0 and v.deviation == 0


def test_is_pne_threshold_supermodular():
    inst = supermodular_cce_gap_instance()
    assert is_pne(inst, 0b111, Contract.of(["17/18", "1/18"]))
    below = Contract.of([F(17, 18) - F(1, 1000), F(1, 18)])
    v = is_pne(inst, 0b111, below)
    assert not v and v.agent == 0 and v.deviation == 0b001


def test_is_cce():
    inst = supermodular_cce_gap_instance()
    a, D = supermodular_gap_cce()
    assert is_cce(inst, D, a)
    sep = separation_example()
    v = is_cce(sep, JointDistribution.point(0b11), Contract.of(["1/36", "1/36"]))
    assert not v and v.agent == 0 and v.deviation == 0


def test_prop54_distribution_is_not_ce():
    # conditioned on the work recommendation, agent 1 gains by dropping
    # the expensive action, so the distribution is only coarse-correlated
    inst = supermodular_cce_gap_instance()
    a, D = supermodular_gap_cce()
    v = is_ce(inst, D, a)
    assert not v
    assert v.agent == 0 and v.recommendation == 0b011 and v.deviation == 0b001


def test_is_mne_separation():
    inst = separation_example()
    a, P = separation_mne()
    assert is_mne(inst, P, a)
    assert is_ce(inst, P.to_joint(inst), a)


def test_dropout_stability():
    inst = separation_example()
    a, P = separation_mne()
    assert is_dropout_stable(inst, P.to_joint(inst), a)
    v = is_dropout_stable(inst, JointDistribution.point(0b11), Contract.zero(2))
    assert not v and v.agent == 0


def test_best_response_dynamics():
    inst = separation_example()
    assert best_response_dynamics(inst, 0, Contract.zero(2)) == 0
    # at (1/20, 1/20) agent 1 is indifferent once agent 0 works, so the
    # dynamics stop at the one-agent equilibrium
    assert best_response_dynamics(inst, 0, Contract.of(["1/20", "1/20"])) == 0b01
    assert best_response_dynamics(inst, 0, Contract.of(["1/18", "1/18"])) == 0b11
    sup = supermodular_cce_gap_instance()
    a = Contract.of(["17/18", "1/18"])
    assert best_response_dynamics(sup, 0b111, a, forced_floor=[0b011, 0b100]) == 0b111
    with pytest.raises(ValueError):
        best_response_dynamics(sup, 0b100, a, forced_floor=[0b011, 0b100])


def test_potential_maximizer_pne():
    inst = separation_example()
    assert potential_maximizer_pne(inst, Contract.of(["1/18", "1/18"]), 0b11) == 0b11
    assert potential_maximizer_pne(inst, Contract.zero(2), 0b11) == 0
    assert potential_maximizer_pne(inst, Contract.of(["7/216", F(0)]), 0b01) == 0b01


@pytest.mark.parametrize("kind", ["additive", "coverage", "xos", "table"])
def test_potential_maximizer_at_a_zero_share(kind):
    """A costly action of a zero-share agent is never demanded: the result is
    the brute-force maximizer of the potential over restrict (None is
    -infinity, the smallest set wins a tie) and a PNE of the zeroed contract."""
    rng = random.Random(f"zero-share/{kind}")
    left_out = 0
    for trial in range(12):
        inst = random_instance(kind, rng.randrange(1 << 30), 3, [2, 2, 1])
        zero = rng.randrange(inst.n)
        a = random_contract(inst.n, rng).replace(zero, F(0))
        # restrict is whole agents, the zero-share one among them, so the
        # result is an equilibrium of the zeroed contract
        restrict = inst.agent_mask(zero) | inst.agent_mask(rng.randrange(inst.n))
        if any(inst.costs[j] for j in bits_of(inst.agent_mask(zero))):
            left_out += 1
        best, best_phi = None, None
        for S in submasks(restrict):
            phi = potential(inst, S, a)
            if phi is not None and (best is None or phi > best_phi):
                best, best_phi = S, phi
        S = potential_maximizer_pne(inst, a, restrict)
        assert S == best
        zeroed = Contract(tuple(a[i] if inst.agent_mask(i) & restrict else F(0)
                                for i in range(inst.n)))
        assert is_pne(inst, S, zeroed)
    assert left_out


def test_containment_chain_random():
    rng = random.Random(11)
    for trial in range(15):
        kind = ("coverage", "xos", "table")[trial % 3]
        inst = random_instance(kind, 700 + trial, 2, 2)
        a = random_contract(inst.n, rng)
        ce = sample_ce(inst, a, rng)
        assert ce is not None and is_ce(inst, ce, a)
        assert is_cce(inst, ce, a)
        assert is_dropout_stable(inst, ce, a)
        cce = sample_cce(inst, a, rng)
        assert cce is not None and is_cce(inst, cce, a)
        assert is_dropout_stable(inst, cce, a)


def test_dynamics_reaches_pne():
    rng = random.Random(12)
    for trial in range(10):
        inst = random_instance("coverage", 800 + trial, 2, 2)
        a = random_contract(inst.n, rng)
        S = best_response_dynamics(inst, 0, a)
        assert is_pne(inst, S, a)


def test_product_expansion_respects_profile_cap(monkeypatch):
    inst = random_instance("additive", 8, 5, 1)
    P = ProductDistribution(tuple(((inst.agent_mask(i), F(1, 2)), (0, F(1, 2)))
                                  for i in range(inst.n)))
    assert len(P.to_joint(inst).support) == 32
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,16")
    with pytest.raises(CapacityError):
        P.to_joint(inst)


def test_dynamics_check_every_cap_before_a_reward_read(monkeypatch):
    # agent 1 owns two actions, over a cap of one bit: the error names it
    # before agent 0's best response reads f
    inst = random_instance("table", 4, 2, [1, 2])
    reads = []
    real = inst.reward.value
    monkeypatch.setattr(inst.reward, "value", lambda S: reads.append(S) or real(S))
    monkeypatch.setenv("CONTRACTLAB_CAP", "1")
    with pytest.raises(CapacityError,
                       match=r"best response agent 1: 2\^2 subsets exceeds"):
        best_response_dynamics(inst, 0, Contract.of(["1/3", "1/3"]))
    assert reads == []


def test_verifier_rows_check_each_agents_cap(monkeypatch):
    # agent 0 owns two actions, over a cap of one bit; on a fresh instance
    # best_cce builds its rows (no kept LP), so the rows check the cap too
    inst = random_instance("coverage", 52, 2, [2, 1])
    a = Contract.of(["1/5", "1/6"])
    D = JointDistribution(((0, F(1, 2)), (inst.full_mask, F(1, 2))))
    dropout = is_dropout_stable(inst, D, a)
    monkeypatch.setenv("CONTRACTLAB_CAP", "1")
    for concept, call in (("ce", is_ce), ("cce", is_cce)):
        with pytest.raises(CapacityError,
                           match=rf"^{concept} rows agent 0: 2\^2 subsets exceeds"):
            call(inst, D, a)
    with pytest.raises(CapacityError, match=r"^cce rows agent 0: 2\^2 subsets"):
        best_cce(inst, a)
    assert inst._lp_cache == {}
    # dropout rows price only 0 and the agent's own slices: no cap applies
    assert is_dropout_stable(inst, D, a) == dropout


def test_potential_maximizer_rejects_split_restrict():
    """restrict must be whole agents: a split mask is a ValueError up front,
    while the full mask, the empty mask and each agent's mask still give a
    PNE of the zeroed contract."""
    rng = random.Random("split-restrict")
    for kind in ("additive", "coverage", "xos", "table"):
        inst = random_instance(kind, rng.randrange(1 << 30), 3, [2, 2, 1])
        a = random_contract(inst.n, rng)
        wholes = [0, inst.full_mask] + [inst.agent_mask(i) for i in range(inst.n)]
        for restrict in range(inst.full_mask + 1):
            whole = all(restrict & inst.agent_mask(i) in (0, inst.agent_mask(i))
                        for i in range(inst.n))
            if not whole:
                with pytest.raises(ValueError, match="splits agent"):
                    potential_maximizer_pne(inst, a, restrict)
                continue
            S = potential_maximizer_pne(inst, a, restrict)
            zeroed = Contract(tuple(a[i] if inst.agent_mask(i) & restrict else F(0)
                                    for i in range(inst.n)))
            assert is_pne(inst, S, zeroed)
        assert all(potential_maximizer_pne(inst, a, r) is not None for r in wholes)

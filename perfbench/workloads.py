"""The benchmark's three workloads.

Each workload function takes the imported library, the workload seed and a
round number and returns the queries of that round: a name, a call into
contractlab and a check of that call's output against ``checker``. Every
input is generated here from the seed and the round number; the library only
receives the generated instances, contracts and distributions. The make-up
of a round (kinds, sizes, query mix) is the same in every round and for
every seed, only the numbers in it change.

Library functions are always looked up on their module at call time
(``lib.solvers.best_cce``), so the traced run sees every call.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checker as ck
from checker import ONE, ZERO, expect

KINDS = ("additive", "coverage", "xos", "supermodular", "table")

# classes each generator kind certifies by construction
CERTIFIED = {
    "additive": ("monotone", "normalized", "additive", "submodular",
                 "supermodular", "xos", "subadditive"),
    "coverage": ("monotone", "normalized", "submodular", "xos", "subadditive"),
    "xos": ("monotone", "normalized", "xos", "subadditive"),
    "supermodular": ("monotone", "normalized", "supermodular"),
    "table": ("monotone", "normalized"),
}


@dataclass
class Query:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_failure: bool = False


def _seeds(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def _cli(lib, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


_COMPUTED = re.compile(r"computed (\S+) \[ok\]$")


def claim(lib, name: str, accept=None) -> Query:
    """``contractlab reproduce <name>``: exit 0, every line ok, and ``accept``
    holding on each computed paper constant."""
    def check(out):
        code, text = out
        lines = text.splitlines()
        expect(code == 0, f"exit code {code}")
        expect(lines and all(line.endswith("[ok]") for line in lines),
               f"not every line is ok:\n{text}")
        if accept is not None:
            values = [_COMPUTED.search(line).group(1) for line in lines
                      if _COMPUTED.search(line)]
            expect(any(accept(v) for v in values),
                   f"no computed value matches the paper in:\n{text}")
    return Query(f"reproduce/{name}", lambda: _cli(lib, ["reproduce", name]), check)


def _contract_with_pne(lib, g, rng, budget=ONE):
    """A random contract under which some PNE exists; the zero contract,
    where the empty profile is always one, ends the search."""
    for _ in range(20):
        a = lib.fixtures.random_contract(g.n, rng, budget=budget)
        pnes = ck.pne_set(g, a.alpha)
        if pnes:
            return a, pnes
    a = lib.core.Contract.zero(g.n)
    return a, ck.pne_set(g, a.alpha)


def _mix(support, S, weight=Fraction(1, 2)):
    """(1 - weight) * support + weight * point mass on S."""
    mixed = {T: p * (ONE - weight) for T, p in support}
    mixed[S] = mixed.get(S, ZERO) + weight
    return tuple(mixed.items())


def _perturbed(g, support, alpha, violation):
    """The support mixed half-half with the first profile, from the full one
    down, that the checker finds violated, so that every seed gives the same
    mix of holding and violated inputs."""
    for S in range((1 << g.m) - 1, -1, -1):
        mixed = _mix(support, S)
        if violation(g, mixed, alpha) is not None:
            break
    return mixed


# ---------------------------------------------------------------------------
# lp-equilibria

# (agent action counts, queries): "all" adds best_ce and the three samplers
# to best_cce and worst_cce. best_ce stops at four actions: at five it
# already takes 0.2-1.7 s depending on the seed.
LP_SHAPES = ((([2, 2], "all"),) * 2 + (([1, 1, 1, 1], "all"),) * 2
             + (([2, 2, 1], "cce"),))
# six and seven actions only on additive rewards: on the other kinds one LP
# there takes 0.5-10 s and varies several-fold with the seed. Eight actions
# are left out: one additive LP takes 1-3 s.
LP_LARGE = (("additive", [2, 2, 2]), ("additive", [3, 2, 2]))
LP_CLAIMS = ("T51-binary-construction", "T52-ce-construction", "L32-property",
             "L36-property")


def _lp_case(lib, kind, inst, a, rng, extras):
    g = ck.Game(inst)
    alpha = a.alpha
    seen = {}
    label = f"{kind}/m{inst.m}"

    def lp(name, concept):
        violation = ck.cce_violation if concept == "cce" else ck.ce_violation

        def check(out):
            D, value = out
            found = violation(g, D.support, alpha)
            expect(found is None, f"{name} output is not a {concept}: {found}")
            expect(value == ck.principal(g, D.support, alpha),
                   f"{name} value {value} != (1 - sum a) E[f]")
            seen[name] = value
        return Query(f"{name}/{label}",
                     lambda: getattr(lib.solvers, name)(inst, a), check)

    def sampler(name, violation, seed):
        def check(D):
            expect(D is not None, f"{name} returned None")
            found = violation(g, D.support, alpha)
            expect(found is None, f"{name} output violates: {found}")
            seen[name] = ck.principal(g, D.support, alpha)
        return Query(f"{name}/{label}",
                     lambda: getattr(lib.fixtures, name)(inst, a, random.Random(seed)),
                     check)

    def order(out):
        """worst_cce <= every PNE <= best_ce <= best_cce, and each sampled
        equilibrium lies between the optima of its concept."""
        check_worst(out)
        if "best_cce" not in seen:  # it raised, which is reported already
            return
        lo, hi = seen["worst_cce"], seen["best_cce"]
        mid = seen.get("best_ce", hi)
        for S in ck.pne_set(g, alpha):
            v = ck.principal(g, ((S, ONE),), alpha)
            expect(lo <= v <= mid, f"PNE utility {v} outside [{lo}, {mid}]")
        expect(mid <= hi, f"best_ce {mid} > best_cce {hi}")
        if "sample_cce" in seen:
            expect(lo <= seen["sample_cce"] <= hi, "sample_cce outside the CCE optima")
        if "sample_ce" in seen:
            expect(lo <= seen["sample_ce"] <= mid, "sample_ce outside [worst_cce, best_ce]")

    queries = [lp("best_cce", "cce")]
    if extras == "all":
        queries.append(lp("best_ce", "ce"))
        base = rng.randrange(1 << 30)
        queries += [sampler("sample_cce", ck.cce_violation, base),
                    sampler("sample_ce", ck.ce_violation, base + 1),
                    sampler("sample_dropout_stable", ck.dropout_violation, base + 2)]
    worst = lp("worst_cce", "cce")
    check_worst = worst.check
    worst.check = order
    queries.append(worst)
    return queries


def lp_equilibria(lib, seed: int, round_no: int) -> list:
    rng = _seeds("lp-equilibria", seed, round_no)
    queries = []
    for kind in KINDS:
        for sizes, extras in LP_SHAPES:
            inst = lib.fixtures.random_instance(kind, rng.randrange(1 << 30),
                                                len(sizes), sizes)
            a = lib.fixtures.random_contract(inst.n, rng)
            queries += _lp_case(lib, kind, inst, a, rng, extras)
    for kind, sizes in LP_LARGE:
        inst = lib.fixtures.random_instance(kind, rng.randrange(1 << 30),
                                            len(sizes), sizes)
        a = lib.fixtures.random_contract(inst.n, rng)
        queries += _lp_case(lib, kind, inst, a, rng, "cce")
    queries += [claim(lib, name) for name in LP_CLAIMS]
    return queries


# ---------------------------------------------------------------------------
# pne-search

# XOS rewards are left to the other workloads: the generator draws 2-4
# clauses, and a value call costs in proportion, so one XOS instance moved a
# pne-search run's throughput by 15% from seed to seed
PNE_KINDS = ("additive", "coverage", "supermodular", "table")
GRID_AGENTS = (2, 3, 4)
GRID_RESOLUTIONS = (4, 8)
ENUM_CONTRACTS = 8
BINARY_AGENTS = (6, 8, 10)
# twelve agents only on tabulated rewards: on the other kinds one sweep at
# n = 12 takes 0.3-2 s and varies with the seed
BINARY_LARGE = (("supermodular", 12), ("table", 12))


def _grid_query(lib, kind, inst, r):
    g = ck.Game(inst)

    def check(report):
        a = report.best_contract.alpha
        S = report.witness
        found = ck.pne_violation(g, S, a)
        expect(found is None, f"grid witness {S:#x} is not a PNE: {found}")
        expect(report.best_value == ck.principal(g, ((S, ONE),), a),
               "grid best value is not the witness's utility")
        expect(report.best_value == max(v for _, v in report.cells),
               "grid best is not the largest cell")
        exact = ck.best_pne_binary_exact(g)
        expect(report.best_value <= exact,
               f"grid best {report.best_value} above the exact optimum {exact}")
    return Query(f"grid_search/{kind}/n{inst.n}/r{r}",
                 lambda: lib.solvers.grid_search(inst, r, "best_pne"), check)


def _enum_query(lib, kind, inst, a):
    g = ck.Game(inst)

    def check(found):
        mine = ck.pne_set(g, a.alpha)
        expect(sorted(S for S, _ in found) == mine,
               f"PNE set {sorted(S for S, _ in found)} != checker {mine}")
        for S, value in found:
            expect(value == ck.principal(g, ((S, ONE),), a.alpha),
                   f"utility of {S:#x} is wrong")
        values = [v for _, v in found]
        expect(values == sorted(values, reverse=True), "not best first")
    return Query(f"enumerate_pne/{kind}/n{inst.n}",
                 lambda: lib.solvers.enumerate_pne(inst, a), check)


def _binary_check(g, floor=None):
    def check(out):
        S, contract, value = out
        found = ck.pne_violation(g, S, contract.alpha)
        expect(found is None, f"contract does not induce {S:#x}: {found}")
        expect(value == ck.principal(g, ((S, ONE),), contract.alpha),
               "value is not the induced profile's utility")
        if floor is None:
            exact = ck.best_pne_binary_exact(g)
            expect(value == exact, f"value {value} != exact optimum {exact}")
        else:
            expect(value >= floor, f"value {value} below the grid best {floor}")
    return check


def pne_search(lib, seed: int, round_no: int) -> list:
    rng = _seeds("pne-search", seed, round_no)
    queries = []
    for kind in PNE_KINDS:
        for n in GRID_AGENTS:
            inst = lib.fixtures.random_instance(kind, rng.randrange(1 << 30), n, 1)
            queries += [_grid_query(lib, kind, inst, r) for r in GRID_RESOLUTIONS]
            for _ in range(ENUM_CONTRACTS):
                a = lib.fixtures.random_contract(n, rng)
                queries.append(_enum_query(lib, kind, inst, a))
    for kind, n in [(k, n) for k in PNE_KINDS for n in BINARY_AGENTS] + list(BINARY_LARGE):
        inst = lib.fixtures.random_instance(kind, rng.randrange(1 << 30), n, 1)
        queries.append(Query(f"best_pne_binary/{kind}/n{n}",
                             lambda inst=inst: lib.solvers.best_pne_binary(inst),
                             _binary_check(ck.Game(inst))))
    queries += [
        claim(lib, "A1-pne-180", lambda v: v == "180"),
        claim(lib, "P54-pne-nonpositive", lambda v: Fraction(v) <= 0),
        claim(lib, "P61-golden-pne-zero"),
        claim(lib, "C2-small-n-pne"),
    ]
    # f = [0, 10, 10, 9] is not monotone; the closed form builds a negative
    # share and raises. A fix must induce its profile and reach the r=8 grid
    # best of 35/4.
    bad = lib.core.make_instance([[1], [1]], lib.rewards.TableReward([0, 10, 10, 9]))
    queries.append(Query("best_pne_binary/non-monotone",
                         lambda: lib.solvers.best_pne_binary(bad),
                         _binary_check(ck.Game(bad), floor=Fraction(35, 4)),
                         known_failure=True))
    return queries


# ---------------------------------------------------------------------------
# certify

CLASSIFY_ACTIONS = (4, 5, 6)
CLASSIFY_LARGE = (("additive", 7), ("supermodular", 7), ("table", 7))
PNE_SHAPES = ([2, 2], [3, 3], [3, 3, 2])
GAP_SIZES = (4, 9, 25, 729)
POTENTIAL_SHAPES = ([3, 3, 2], [4, 3, 3], [4, 4, 4])
CERTIFY_CLAIMS = (("A1-mne-183.6", lambda v: v == "918/5"),
                  ("P54-cce-7/45", lambda v: v == "7/45"),
                  ("P61-golden-mne-positive", None),
                  ("C3-mne-valid", None))


def _classify_query(lib, kind, inst):
    g = ck.Game(inst)

    def check(report):
        for name in CERTIFIED[kind]:
            expect(getattr(report, name), f"{name} certified but reported no")
        for name, truth in ck.class_truths(g).items():
            if truth is not None:
                expect(getattr(report, name) == truth,
                       f"{name}: reported {getattr(report, name)}, checker {truth}")
    return Query(f"classify/{kind}/m{inst.m}",
                 lambda: lib.rewards.classify(inst.reward), check)


def _verdict_query(lib, name, inst, support, a, call, violation,
                   conditional=False):
    g = ck.Game(inst)

    def check(verdict):
        found = violation(g, support, a.alpha)
        expect(bool(verdict) == (found is None),
               f"verdict {bool(verdict)}, checker finds {found}")
        if not verdict:
            ck.expect_witness(g, support, a.alpha, verdict,
                              conditional=conditional)
    return Query(name, call, check)


def _pne_query(lib, label, inst, S, a):
    return _verdict_query(lib, f"is_pne/{label}", inst, ((S, ONE),), a,
                          lambda: lib.equilibria.is_pne(inst, S, a),
                          ck.ce_violation)


def _verifier_queries(lib, kind, inst, a, rng):
    """is_cce / is_ce / is_dropout_stable / is_mne on LP-sampled equilibria
    and on perturbations of them."""
    g = ck.Game(inst)
    eq = lib.equilibria
    base = rng.randrange(1 << 30)
    cce = lib.fixtures.sample_cce(inst, a, random.Random(base))
    ce = lib.fixtures.sample_ce(inst, a, random.Random(base + 1))
    ds = lib.fixtures.sample_dropout_stable(inst, a, random.Random(base + 2))
    queries = []
    for concept, D, fn, violation, conditional in (
            ("cce", cce, "is_cce", ck.cce_violation, False),
            ("ce", ce, "is_ce", ck.ce_violation, True),
            ("dropout", ds, "is_dropout_stable", ck.dropout_violation, False)):
        for tag, support in (("sampled", D.support),
                             ("perturbed", _perturbed(g, D.support, a.alpha, violation))):
            joint = eq.JointDistribution(tuple(support))
            queries.append(_verdict_query(
                lib, f"{fn}/{tag}/{kind}", inst, joint.support, a,
                lambda fn=fn, joint=joint: getattr(lib.equilibria, fn)(inst, joint, a),
                violation, conditional))
    # mixed equilibria: a PNE as a product of point slices, and a half-half mix
    a_pne, pnes = _contract_with_pne(lib, g, rng)
    S = pnes[rng.randrange(len(pnes))]
    pure = eq.ProductDistribution(tuple(((S & g.masks[i], ONE),) for i in range(g.n)))
    for k in range(2, 6):  # work with probability 1/k until the mix fails
        mixed = eq.ProductDistribution(tuple(
            ((g.masks[i], Fraction(1, k)), (0, 1 - Fraction(1, k)))
            for i in range(g.n)))
        if ck.cce_violation(g, ck.expand(mixed.per_agent), a.alpha) is not None:
            break
    for tag, P, contract in (("pure", pure, a_pne), ("mixed", mixed, a)):
        queries.append(_verdict_query(
            lib, f"is_mne/{tag}/{kind}", inst, ck.expand(P.per_agent), contract,
            lambda P=P, contract=contract: lib.equilibria.is_mne(inst, P, contract),
            ck.cce_violation))
    return queries


def _lift_query(lib, fn, label, inst, a, D):
    g = ck.Game(inst)
    reference = ck.principal(g, D.support, a.alpha)

    def check(res):
        found = ck.pne_violation(g, res.pne, res.contract.alpha)
        expect(found is None, f"{fn} output is not a PNE: {found}")
        achieved = ck.principal(g, ((res.pne, ONE),), res.contract.alpha)
        expect(achieved >= res.claimed_ratio * reference,
               f"{fn} achieved {achieved} < {res.claimed_ratio} * {reference}")
    return Query(f"{fn}/{label}",
                 lambda: getattr(lib.transforms, fn)(inst, a, D), check)


def _transform_queries(lib, rng):
    fx, tf = lib.fixtures, lib.transforms
    queries = []
    # CCE to PNE lifts on XOS rewards, from LP-sampled CCEs (m <= 4) and from
    # a point mass on a PNE (m = 9)
    for kind in ("additive", "coverage", "xos"):
        for n, per in ((2, 2), (3, 1)):
            inst = fx.random_instance(kind, rng.randrange(1 << 30), n, per)
            a = fx.random_contract(n, rng)
            D = fx.sample_cce(inst, a, random.Random(rng.randrange(1 << 30)))
            for fn in ("lift_xos", "lift_subadditive"):
                queries.append(_lift_query(lib, fn, f"{kind}/m{inst.m}", inst, a, D))
        inst = fx.random_instance(kind, rng.randrange(1 << 30), 3, 3)
        a = fx.random_contract(inst.n, rng)
        S = lib.equilibria.potential_maximizer_pne(inst, a, (1 << inst.m) - 1)
        D = lib.equilibria.JointDistribution.point(S)
        for fn in ("lift_xos", "lift_subadditive"):
            queries.append(_lift_query(lib, fn, f"{kind}/m{inst.m}", inst, a, D))

    # scaling a dropout-stable distribution (XOS)
    for per in (1, 2):
        inst = fx.random_instance("xos", rng.randrange(1 << 30), 3, per)
        g = ck.Game(inst)
        gamma = Fraction(2)
        a = fx.random_contract(inst.n, rng, budget=ONE / gamma)
        D = fx.sample_dropout_stable(inst, a, random.Random(rng.randrange(1 << 30)))
        params = tf.ScalingParams(gamma=gamma, subset=frozenset(range(inst.n)))

        def check(out, g=g, D=D, gamma=gamma):
            contract, S = out
            found = ck.pne_violation(g, S, contract.alpha)
            expect(found is None, f"scaled output is not a PNE: {found}")
            bound = (ONE - 1 / gamma) * ck.expected_reward(g, D.support)
            expect(g.f(S) >= bound, f"f(S) = {g.f(S)} < {bound}")
        queries.append(Query(
            f"scale_for_existence/xos/m{inst.m}",
            lambda inst=inst, a=a, D=D, params=params:
                lib.transforms.scale_for_existence(inst, a, D, params),
            check))

    # robustifying a PNE (submodular): every PNE of the output keeps 1/224
    for per in (1, 2):
        inst = fx.random_instance("coverage", rng.randrange(1 << 30), 3, per)
        g = ck.Game(inst)
        a, pnes = _contract_with_pne(lib, g, rng)
        S = max(pnes, key=lambda T: (ck.principal(g, ((T, ONE),), a.alpha), -T))
        reference = ck.principal(g, ((S, ONE),), a.alpha)

        def check(contract, g=g, reference=reference):
            expect(sum(contract.alpha, ZERO) <= 1, "robust contract pays over 1")
            for T in ck.pne_set(g, contract.alpha):
                v = ck.principal(g, ((T, ONE),), contract.alpha)
                expect(v >= reference / 224, f"PNE {T:#x} keeps {v} < {reference}/224")
        queries.append(Query(
            f"robustify_submodular/coverage/m{inst.m}",
            lambda inst=inst, a=a, S=S: lib.transforms.robustify_submodular(inst, a, S),
            check))

    # supermodular constructions from a sampled CCE (binary) and CE
    for fn, sampler, n, per in (("cce_to_pne_supermodular_binary", "sample_cce", 3, 1),
                                ("cce_to_pne_supermodular_binary", "sample_cce", 4, 1),
                                ("ce_to_pne_supermodular", "sample_ce", 2, [2, 1]),
                                ("ce_to_pne_supermodular", "sample_ce", 2, 2)):
        inst = fx.random_instance("supermodular", rng.randrange(1 << 30), n, per)
        g = ck.Game(inst)
        a = fx.random_contract(inst.n, rng)
        D = getattr(fx, sampler)(inst, a, random.Random(rng.randrange(1 << 30)))
        reference = ck.principal(g, D.support, a.alpha)

        def check(out, g=g, reference=reference):
            contract, S = out
            found = ck.pne_violation(g, S, contract.alpha)
            expect(found is None, f"output is not a PNE: {found}")
            v = ck.principal(g, ((S, ONE),), contract.alpha)
            expect(v >= reference, f"PNE utility {v} < input {reference}")
        queries.append(Query(
            f"{fn}/m{inst.m}",
            lambda fn=fn, inst=inst, a=a, D=D: getattr(lib.transforms, fn)(inst, a, D),
            check))

    # potential maximizer over every action, up to 12 actions
    for kind, sizes in zip(KINDS * 2, POTENTIAL_SHAPES * 2):
        inst = fx.random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
        g = ck.Game(inst)
        a = fx.random_contract(inst.n, rng)
        full = (1 << inst.m) - 1

        def check(S, g=g, a=a):
            found = ck.pne_violation(g, S, a.alpha)
            expect(found is None, f"potential maximizer is not a PNE: {found}")
            phi = ck.potential(g, S, a.alpha)
            for T in ck.subsets((1 << g.m) - 1):
                other = ck.potential(g, T, a.alpha)
                expect(other is None or (phi is not None and other <= phi),
                       f"potential of {T:#x} exceeds that of {S:#x}")
        queries.append(Query(
            f"potential_maximizer_pne/{kind}/m{inst.m}",
            lambda inst=inst, a=a, full=full:
                lib.equilibria.potential_maximizer_pne(inst, a, full),
            check))
    return queries


def certify(lib, seed: int, round_no: int) -> list:
    rng = _seeds("certify", seed, round_no)
    fx = lib.fixtures
    queries = []
    for kind in KINDS:
        for m in CLASSIFY_ACTIONS:
            inst = fx.random_instance(kind, rng.randrange(1 << 30), 2, [m - m // 2, m // 2])
            queries.append(_classify_query(lib, kind, inst))
    for kind, m in CLASSIFY_LARGE:
        inst = fx.random_instance(kind, rng.randrange(1 << 30), 2, [m - m // 2, m // 2])
        queries.append(_classify_query(lib, kind, inst))

    for kind in KINDS:
        inst = fx.random_instance(kind, rng.randrange(1 << 30), 2, [2, 1])
        a = fx.random_contract(inst.n, rng)
        queries += _verifier_queries(lib, kind, inst, a, rng)
        for sizes in PNE_SHAPES:
            inst = fx.random_instance(kind, rng.randrange(1 << 30), len(sizes), sizes)
            g = ck.Game(inst)
            a, pnes = _contract_with_pne(lib, g, rng)
            pne = pnes[rng.randrange(len(pnes))]
            others = [S for S in range(1 << inst.m) if S not in pnes] or pnes
            other = others[rng.randrange(len(others))]
            queries.append(_pne_query(lib, f"{kind}/m{inst.m}/pne", inst, pne, a))
            queries.append(_pne_query(lib, f"{kind}/m{inst.m}/random", inst, other, a))

    # the subadditive gap family: f is a closed form, so no profile repeats
    for n in GAP_SIZES:
        inst = fx.subadditive_gap_instance(n)
        a, P = fx.claim_c3_mne(inst, n)
        support = ck.expand(P.per_agent)
        low = lib.core.Contract(tuple(v / 2 for v in a.alpha))
        queries.append(_verdict_query(
            lib, f"is_mne/gap/n{n}", inst, support, a,
            lambda inst=inst, P=P, a=a: lib.equilibria.is_mne(inst, P, a),
            ck.cce_violation))
        queries.append(_verdict_query(
            lib, f"is_mne/gap/n{n}/half-shares", inst, support, low,
            lambda inst=inst, P=P, low=low: lib.equilibria.is_mne(inst, P, low),
            ck.cce_violation))
        joint = P.to_joint(inst)
        queries.append(_verdict_query(
            lib, f"is_dropout_stable/gap/n{n}", inst, support, a,
            lambda inst=inst, joint=joint, a=a:
                lib.equilibria.is_dropout_stable(inst, joint, a),
            ck.dropout_violation))
        if n < 729:
            for fn, violation, conditional in (("is_cce", ck.cce_violation, False),
                                               ("is_ce", ck.ce_violation, True)):
                queries.append(_verdict_query(
                    lib, f"{fn}/gap/n{n}", inst, support, a,
                    lambda fn=fn, inst=inst, joint=joint, a=a:
                        getattr(lib.equilibria, fn)(inst, joint, a),
                    violation, conditional))
        queries.append(_pne_query(lib, f"gap/n{n}/all", inst, (1 << inst.m) - 1, a))

    queries += _transform_queries(lib, rng)
    queries += [claim(lib, name, accept) for name, accept in CERTIFY_CLAIMS]
    return queries


WORKLOADS = {"lp-equilibria": lp_equilibria, "pne-search": pne_search,
             "certify": certify}

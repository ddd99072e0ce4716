"""Command-line driver: serialization, verification, transformations,
benchmark reproduction, and gap reports.

Exit codes: 0 check passed, 1 check verified false, 2 parse or usage error
(including a library ValueError raised on the given input), 3 capacity cap
exceeded, 4 internal error (a failed post-check, RuntimeError).
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import fixtures, solvers, transforms
from .core import (
    CapacityError,
    Contract,
    Instance,
    ZERO,
    as_fraction,
    bits_of,
    fraction_str,
    int_digit_limit,
    make_instance,
    mask_of,
    principal_utility,
)
from .equilibria import (
    JointDistribution,
    ProductDistribution,
    is_cce,
    is_ce,
    is_dropout_stable,
    is_mne,
    is_pne,
)
from .rewards import (
    AdditiveReward,
    CoverageReward,
    TableReward,
    XosReward,
    classify,
)

PASS, FAIL, PARSE_ERROR, CAPACITY_ERROR, INTERNAL_ERROR = 0, 1, 2, 3, 4
# a formula reward, which has no succinct form, is tabulated up to this many actions
TABULATED_ACTIONS = 16


class InputError(Exception):
    """Malformed file, flag, or value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# serialization

def parse_scalar(raw) -> Fraction:
    if isinstance(raw, bool):
        # a JSON true or false: as_fraction would read it as the int 1 or 0
        raise InputError(f"bad rational {raw!r}: a boolean is not a number")
    try:
        return as_fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"bad rational {raw!r}: {exc}") from None


def _listed(value, what: str) -> list:
    """``value``, which must be a JSON list: a string or an object would
    iterate as characters or keys."""
    if not isinstance(value, list):
        raise InputError(f"bad reward payload: {what} must be a list")
    return value


def _reward_from_json(payload, m: int):
    if not isinstance(payload, dict) or "type" not in payload:
        raise InputError("reward payload needs a 'type' field")
    kind = payload["type"]
    try:
        if kind in ("table", "additive"):
            values = [parse_scalar(v) for v in _listed(payload["values"], "values")]
            reward = (TableReward if kind == "table" else AdditiveReward)(values)
        elif kind == "xos":
            reward = XosReward([[parse_scalar(v) for v in _listed(clause, "each clause")]
                                for clause in _listed(payload["clauses"], "clauses")])
        elif kind == "coverage":
            weights = [parse_scalar(w) for w in _listed(payload["weights"], "weights")]
            reward = CoverageReward(
                weights, [_id_mask(cover, len(weights), "cover")
                          for cover in payload["covers"]])
        else:
            raise InputError(f"unknown reward type {kind!r}")
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad reward payload: {exc}") from None
    if reward.m != m:
        raise InputError(f"reward covers {reward.m} actions, instance has {m}")
    return reward


def instance_from_json(doc) -> Instance:
    try:
        agents = doc["agents"]
        expected = 0
        per_agent = []
        for record in agents:
            costs = []
            for action in record["actions"]:
                if type(action["id"]) is not int or action["id"] != expected:
                    raise InputError(
                        f"action ids must be 0..m-1 in agent order; "
                        f"got {action['id']}, expected {expected}")
                expected += 1
                costs.append(parse_scalar(action["cost"]))
            per_agent.append(costs)
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad instance document: {exc}") from None
    reward = _reward_from_json(doc.get("reward"), expected)
    try:
        return make_instance(per_agent, reward)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def instance_to_json(inst: Instance) -> dict:
    agents = []
    j = 0
    for i in range(inst.n):
        actions = []
        for _ in range(inst.agent_mask(i).bit_count()):
            actions.append({"id": j, "cost": fraction_str(inst.costs[j])})
            j += 1
        agents.append({"id": i, "actions": actions})
    reward = inst.reward
    if isinstance(reward, TableReward):
        payload = {"type": "table",
                   "values": [fraction_str(v) for v in reward.values]}
    elif isinstance(reward, AdditiveReward):
        payload = {"type": "additive",
                   "values": [fraction_str(v) for v in reward.per_action]}
    elif isinstance(reward, XosReward):
        payload = {"type": "xos",
                   "clauses": [[fraction_str(v) for v in cl]
                               for cl in reward.clauses]}
    elif isinstance(reward, CoverageReward):
        payload = {"type": "coverage",
                   "weights": [fraction_str(w) for w in reward.weights],
                   "covers": [list(bits_of(c)) for c in reward.covers]}
    else:
        if reward.m > TABULATED_ACTIONS:
            raise InputError("reward has no serializable form at this size")
        payload = {"type": "table",
                   "values": [fraction_str(reward.value(S))
                              for S in range(1 << reward.m)]}
    return {"agents": agents, "reward": payload}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_instance(path: str) -> Instance:
    return instance_from_json(_load_json(path))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting too deep for the decoder, which is bad
        # input and not a failed post-check (it is a RuntimeError)
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_json(path: str, doc) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(canonical_json(doc))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def parse_contract(raw: str, n: int) -> Contract:
    parts = raw.split(",")
    if any(not p.strip() for p in parts):
        raise InputError(f"bad contract {raw!r}: empty share")
    if len(parts) != n:
        raise InputError(f"contract has {len(parts)} shares, instance has {n} agents")
    try:
        return Contract(tuple(parse_scalar(p) for p in parts))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _id_mask(ids, width: int, what: str) -> int:
    """The bitmask of an id list read from outside. Every id must be an int
    in [0, width), checked before any shift: 1 << j for a huge j allocates
    before anything else can fail."""
    if not isinstance(ids, list):
        raise InputError(f"bad {what}: expected a list of ids")
    for j in ids:
        if type(j) is not int or not 0 <= j < width:
            raise InputError(
                f"bad {what}: id {j!r} is not an integer in [0, {width})")
    return mask_of(ids)


def parse_profile(raw: str, inst: Instance) -> int:
    if not raw.strip():
        return 0
    try:
        ids = [int(p) for p in raw.split(",")]
    except ValueError as exc:
        raise InputError(f"bad profile {raw!r}: {exc}") from None
    return _id_mask(ids, inst.m, f"profile {raw!r}")


def distribution_from_json(doc, inst: Instance):
    """Returns (joint, product-or-None)."""
    try:
        if "support" in doc:
            support = tuple(
                (_id_mask(entry["profile"], inst.m, "profile"),
                 parse_scalar(entry["prob"]))
                for entry in doc["support"])
            return JointDistribution(support), None
        if "product" in doc:
            per_agent = tuple(
                tuple((_id_mask(entry["slice"], inst.m, "slice"),
                       parse_scalar(entry["prob"]))
                      for entry in agent)
                for agent in doc["product"])
            P = ProductDistribution(per_agent)
            return P.to_joint(inst), P
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad distribution document: {exc}") from None
    raise InputError("distribution needs a 'support' or 'product' field")


def distribution_to_json(D: JointDistribution) -> dict:
    return {"support": [{"profile": list(bits_of(S)), "prob": fraction_str(p)}
                        for S, p in D.support]}


def contract_str(a: Contract) -> str:
    return "(" + ", ".join(fraction_str(v) for v in a.alpha) + ")"


def profile_str(S: int) -> str:
    return "{" + ",".join(str(j) for j in bits_of(S)) + "}"


# ---------------------------------------------------------------------------
# commands

def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    a = parse_contract(args.contract, inst.n)
    joint, product = distribution_from_json(_load_json(args.distribution), inst)
    tol = parse_scalar(args.tolerance) if args.tolerance else None
    concept = args.concept
    if concept == "pne":
        if len(joint.support) != 1:
            raise InputError("pne verification needs a point-mass distribution")
        verdict = is_pne(inst, joint.support[0][0], a, tol=tol)
    elif concept == "mne":
        if product is None:
            raise InputError("mne verification needs a product-form distribution")
        verdict = is_mne(inst, product, a, tol=tol)
    elif concept == "ce":
        verdict = is_ce(inst, joint, a, tol=tol)
    elif concept == "cce":
        verdict = is_cce(inst, joint, a, tol=tol)
    else:
        verdict = is_dropout_stable(inst, joint, a, tol=tol)
    if verdict:
        print(f"{concept}: holds")
        return PASS
    print(f"{concept}: violated by agent {verdict.agent} "
          f"deviating to {profile_str(verdict.deviation)}")
    if verdict.recommendation is not None:
        print(f"  on recommendation {profile_str(verdict.recommendation)}")
    print(f"  utility following: {fraction_str(verdict.lhs)}")
    print(f"  utility deviating: {fraction_str(verdict.rhs)}")
    return FAIL


def cmd_lift(args) -> int:
    inst = load_instance(args.instance)
    a_star = parse_contract(args.contract, inst.n)
    joint, _ = distribution_from_json(_load_json(args.distribution), inst)
    lift = (transforms.lift_xos if args.mode == "xos"
            else transforms.lift_subadditive)(inst, a_star, joint)
    reference = joint.principal_utility(inst, a_star)
    achieved = principal_utility(inst, lift.pne, lift.contract)
    print(f"case: {lift.case_tag}")
    print(f"contract: {contract_str(lift.contract)}")
    print(f"pne: {profile_str(lift.pne)}")
    print(f"input utility: {fraction_str(reference)}")
    print(f"output utility: {fraction_str(achieved)}")
    print(f"claimed ratio: {fraction_str(lift.claimed_ratio)}")
    if reference > 0:
        print(f"achieved ratio: {fraction_str(achieved / reference)}")
    if args.out:
        doc = {"case": lift.case_tag,
               "contract": [fraction_str(v) for v in lift.contract.alpha],
               "pne": list(bits_of(lift.pne)),
               "utility": fraction_str(achieved),
               "claimed_ratio": fraction_str(lift.claimed_ratio)}
        _write_json(args.out, doc)
    ok = achieved >= lift.claimed_ratio * reference
    return PASS if ok else FAIL


def cmd_robustify(args) -> int:
    inst = load_instance(args.instance)
    a_star = parse_contract(args.contract, inst.n)
    S_star = parse_profile(args.profile, inst)
    case = transforms.robustify_case(inst, a_star, S_star)
    contract = transforms.robustify_submodular(inst, a_star, S_star)
    _, worst_utility = solvers.worst_cce(inst, contract)
    reference = principal_utility(inst, S_star, a_star)
    print(f"case: {case}")
    print(f"contract: {contract_str(contract)}")
    print(f"worst-cce utility: {fraction_str(worst_utility)}")
    print(f"input utility: {fraction_str(reference)}")
    if reference > 0:
        print(f"achieved ratio: {fraction_str(worst_utility / reference)}")
    ok = worst_utility >= Fraction(1, 224) * reference
    print(f"ratio >= 1/224: {'yes' if ok else 'NO'}")
    return PASS if ok else FAIL


def cmd_gap_report(args) -> int:
    inst = load_instance(args.instance)
    cells = []
    if args.cells:
        for chunk in args.cells.split(";"):
            if chunk.strip():
                cells.append(parse_contract(chunk, inst.n))
    reports = {}
    for concept in args.concepts:
        reports[concept] = solvers.grid_search(
            inst, args.resolution, concept, explicit_cells=cells)
    width = max(len(c) for c in reports)
    print(f"grid resolution {args.resolution}, "
          f"{len(next(iter(reports.values())).cells)} cells per concept")
    for concept, report in reports.items():
        print(f"{concept.ljust(width)}  best {fraction_str(report.best_value)}"
              f"  at {contract_str(report.best_contract)}")
    if "best_pne" in reports:
        base = reports["best_pne"].best_value
        for concept, report in reports.items():
            if concept == "best_pne" or base <= 0:
                continue
            print(f"{concept.ljust(width)} / best_pne ratio: "
                  f"{fraction_str(report.best_value / base)}")
    if args.json:
        doc = {"resolution": args.resolution, "concepts": {}}
        for concept, report in reports.items():
            doc["concepts"][concept] = {
                "best_value": fraction_str(report.best_value),
                "best_contract": [fraction_str(v)
                                  for v in report.best_contract.alpha],
                "cells": [{"contract": [fraction_str(v) for v in a.alpha],
                           "value": fraction_str(value)}
                          for a, value in report.cells],
            }
        _write_json(args.json, doc)
    return PASS


def cmd_classify(args) -> int:
    inst = load_instance(args.instance)
    report = classify(inst.reward)
    for name in ("monotone", "normalized", "additive", "submodular", "xos",
                 "subadditive", "supermodular"):
        print(f"{name}: {'yes' if getattr(report, name) else 'no'}")
    return PASS


def cmd_gen(args) -> int:
    name = args.name
    if name == "separation":
        inst = fixtures.separation_example()
    elif name == "subadditive-gap":
        # fixtures.subadditive_gap_instance(n) has m = 2n + 2 actions
        if 2 * args.n + 2 > TABULATED_ACTIONS:
            raise InputError(f"--n {args.n} gives more than {TABULATED_ACTIONS} actions")
        inst = fixtures.subadditive_gap_instance(args.n)
    elif name == "supermodular-gap":
        inst = fixtures.supermodular_cce_gap_instance()
    elif name == "golden":
        # the table holds phi + 1, whose numerator has digits + 1 digits
        if 0 < int_digit_limit() <= args.digits:
            raise InputError(f"--digits must be below {int_digit_limit()}")
        inst = fixtures.golden_ratio_instance(args.digits)
    elif name == "random":
        if not args.kind:
            raise InputError("random generation needs --kind")
        inst = fixtures.random_instance(args.kind, args.seed, args.n,
                                        args.actions)
    else:
        raise InputError(f"unknown fixture {name!r}")
    sys.stdout.write(canonical_json(instance_to_json(inst)))
    return PASS


# ---------------------------------------------------------------------------
# reproduction registry

# Each claim yields records (label, expected, computed[, ok]); ok defaults to
# computed == expected, and cmd_reproduce prints every record.

def _repro_a1_pne():
    inst = fixtures.separation_example()
    S, _, utility = solvers.best_pne(inst)
    yield "best pure-equilibrium utility", Fraction(180), utility
    yield "inducing profile", "{0,1}", profile_str(S)


def _repro_a1_mne():
    inst = fixtures.separation_example()
    a, P = fixtures.separation_mne()
    joint = P.to_joint(inst)
    yield "mixed equilibrium verifies", True, bool(is_mne(inst, P, a))
    yield "principal utility", Fraction(918, 5), joint.principal_utility(inst, a)


def _repro_p54_cce():
    inst = fixtures.supermodular_cce_gap_instance()
    a, D = fixtures.supermodular_gap_cce()
    yield "distribution verifies as cce", True, bool(is_cce(inst, D, a))
    yield "principal utility", Fraction(7, 45), D.principal_utility(inst, a)


def _repro_p54_pne():
    inst = fixtures.supermodular_cce_gap_instance()
    _, _, utility = solvers.best_pne(inst)
    yield ("best pure-equilibrium utility over all contracts", ZERO, utility,
           utility <= 0)


def _repro_p61_pne():
    inst = fixtures.golden_ratio_instance(50)
    _, _, g = solvers.best_pne(inst)
    bound = Fraction(1, 10 ** 18)
    yield "max inducible utility", "within 1e-18 of 0", g, -bound <= g <= bound


def _repro_p61_mne():
    inst = fixtures.golden_ratio_instance(50)
    a, P = fixtures.golden_ratio_mne(50)
    tol = Fraction(1, 10 ** 40)
    yield ("mixed equilibrium verifies (tolerance 1e-40)", True,
           bool(is_mne(inst, P, a, tol=tol)))
    utility = P.to_joint(inst).principal_utility(inst, a)
    yield ("principal utility exceeds 1/50", "> 1/50", utility,
           utility > Fraction(1, 50))


def _repro_c2():
    inst = fixtures.subadditive_gap_instance(1)
    _, _, g = solvers.best_pne(inst)
    yield "best pure-equilibrium utility (n=1)", "<= 13/2", g, g <= Fraction(13, 2)


def _repro_c3():
    for n in (4, 9, 25):
        inst = fixtures.subadditive_gap_instance(n)
        a, P = fixtures.claim_c3_mne(inst, n)
        yield f"n={n} mixed equilibrium verifies", True, bool(is_mne(inst, P, a))
        yield (f"n={n} principal utility", fixtures.claim_c3_expected_utility(n),
               P.to_joint(inst).principal_utility(inst, a))


def _repro_t51():
    rng = random.Random(51)
    for trial in range(5):
        inst = fixtures.random_instance("supermodular", 510 + trial, 3, 1)
        a = fixtures.random_contract(inst.n, rng)
        D, _ = solvers.best_cce(inst, a)
        contract, S = transforms.cce_to_pne_supermodular_binary(inst, a, D)
        principal = principal_utility(inst, S, contract)
        yield (f"trial {trial} construction utility", ">= cce utility",
               principal, principal >= D.principal_utility(inst, a))


def _repro_t52():
    rng = random.Random(52)
    for trial in range(5):
        inst = fixtures.random_instance("supermodular", 520 + trial, 2, [2, 1])
        a = fixtures.random_contract(inst.n, rng)
        D, ce_utility = solvers.best_ce(inst, a)
        _, S = transforms.ce_to_pne_supermodular(inst, a, D)
        utility = principal_utility(inst, S, a)
        yield (f"trial {trial} dynamics utility", ">= ce utility", utility,
               utility >= ce_utility)


def _repro_l32():
    rng = random.Random(32)
    for trial in range(10):
        inst = fixtures.random_instance("xos", 320 + trial, 2, [2, 1])
        a = fixtures.random_contract(inst.n, rng, budget=Fraction(1, 2))
        D = fixtures.sample_dropout_stable(inst, a, rng)
        params = transforms.ScalingParams(gamma=Fraction(2),
                                          subset=frozenset(range(inst.n)))
        _, S = transforms.scale_for_existence(inst, a, D, params)
        target = Fraction(1, 2) * D.expected_reward(inst)
        value = inst.reward.value(S)
        yield (f"trial {trial} scaled reward bound", f">= {fraction_str(target)}",
               value, value >= target)


def _repro_l36():
    rng = random.Random(36)
    for trial in range(10):
        inst = fixtures.random_instance("coverage", 360 + trial, 2, [2, 1])
        a = fixtures.random_contract(inst.n, rng, budget=Fraction(1, 4))
        D = fixtures.sample_dropout_stable(inst, a, rng)
        eps = Fraction(1, 2 * inst.n)
        scaled = transforms.scaled_contract(
            inst, a, transforms.ScalingParams(
                gamma=Fraction(2), subset=frozenset(range(inst.n)),
                epsilon=eps))
        worst, _ = solvers.worst_cce(inst, scaled)
        target = Fraction(1, 4) * D.expected_reward(inst)
        reward = worst.expected_reward(inst)
        yield (f"trial {trial} worst-cce reward", f">= {fraction_str(target)}",
               reward, reward >= target)


REPRODUCE = {
    "A1-pne-180": _repro_a1_pne,
    "A1-mne-183.6": _repro_a1_mne,
    "P54-cce-7/45": _repro_p54_cce,
    "P54-pne-nonpositive": _repro_p54_pne,
    "P61-golden-pne-zero": _repro_p61_pne,
    "P61-golden-mne-positive": _repro_p61_mne,
    "C2-small-n-pne": _repro_c2,
    "C3-mne-valid": _repro_c3,
    "T51-binary-construction": _repro_t51,
    "T52-ce-construction": _repro_t52,
    "L32-property": _repro_l32,
    "L36-property": _repro_l36,
}


def cmd_reproduce(args) -> int:
    if args.claim not in REPRODUCE:
        raise InputError(
            f"unknown claim {args.claim!r}; known: {', '.join(sorted(REPRODUCE))}")
    def show(v):
        return fraction_str(v) if isinstance(v, Fraction) else v
    passed = True
    for label, expected, computed, *ok in REPRODUCE[args.claim]():
        ok = ok[0] if ok else computed == expected
        print(f"{label}: expected {show(expected)}, computed {show(computed)} "
              f"[{'ok' if ok else 'MISMATCH'}]")
        passed = passed and ok
    return PASS if passed else FAIL


# ---------------------------------------------------------------------------
# entry point

def _positive_int(raw: str) -> int:
    """argparse type of a size or count: an integer of at least 1."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return int(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built on first use: no handler
    changes a parsed default."""
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="multi-agent combinatorial contracts toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check an equilibrium concept")
    p.add_argument("instance")
    p.add_argument("--contract", required=True)
    p.add_argument("--distribution", required=True)
    p.add_argument("--concept", required=True,
                   choices=["pne", "mne", "ce", "cce", "dropout"])
    p.add_argument("--tolerance", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lift", help="turn a CCE into a PNE")
    p.add_argument("instance")
    p.add_argument("--contract", required=True)
    p.add_argument("--distribution", required=True)
    p.add_argument("--mode", required=True, choices=["xos", "subadditive"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("robustify",
                       help="contract whose every CCE approximates a PNE")
    p.add_argument("instance")
    p.add_argument("--contract", required=True)
    p.add_argument("--profile", required=True)
    p.set_defaults(fn=cmd_robustify)

    p = sub.add_parser("reproduce", help="re-run a named benchmark check")
    p.add_argument("claim")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("gap-report", help="equilibrium benchmarks over a grid")
    p.add_argument("instance")
    p.add_argument("--resolution", type=_positive_int, default=4)
    p.add_argument("--concepts", nargs="+", default=["best_pne", "best_cce"],
                   choices=["best_pne", "best_cce", "worst_cce", "best_ce"])
    p.add_argument("--cells", default=None,
                   help="semicolon-separated explicit contracts")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_gap_report)

    p = sub.add_parser("classify", help="reward class membership report")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("gen", help="emit a fixture or random instance")
    p.add_argument("name")
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--digits", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", default=None)
    p.add_argument("--actions", type=_positive_int, default=1,
                   help="actions per agent for random instances")
    p.set_defaults(fn=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    except ValueError as exc:
        # the library rejects the given instance, contract or value
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

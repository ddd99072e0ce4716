"""Exact rational LP solver and equilibrium benchmarks built on it.

The simplex is a two-phase tableau method with Bland's anti-cycling rule. It
pivots fraction-free over integers: each row is scaled to integers, and the
tableau holds Python ints over one common denominator, updated by Bareiss
pivots whose divisions are exact. Homogeneous ">=" rows are negated into
"<=" rows that start basic on their slacks, so only rows with a positive
right-hand side that are not "<=" get an artificial. Before an optimum is
returned it is certified on the original program: x is primal feasible, the
duals read off the final tableau are dual feasible, and the two objective
values agree. Exactness matters: equilibria hold with ties, so every
comparison must be decided without rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .core import (
    Contract,
    Instance,
    ONE,
    ZERO,
    check_profile_count,
    principal_utility,
    submasks,
)
from .equilibria import JointDistribution, is_pne


@dataclass(frozen=True)
class LinearProgram:
    """max/min objective . x subject to rows, x >= 0."""

    objective: tuple
    sense: str
    rows: tuple  # (coefficients, relation in {"<=", "=", ">="}, rhs)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown sense {self.sense!r}")
        width = len(self.objective)
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != width:
                raise ValueError("row width does not match variable count")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: Optional[tuple] = None
    value: Optional[Fraction] = None


def _integer_row(values):
    """``values`` times the lcm of their denominators, as ints, and that lcm."""
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _eliminate(row, prow, p, d, c):
    q = row[c]
    if q:
        return [(p * v - q * w) // d for v, w in zip(row, prow)]
    if p == d:
        return row
    return [p * v // d for v in row]


def _pivot(tab, basis, d, r, c):
    """Fraction-free pivot on tab[r][c]; returns the new common denominator.

    ``tab`` holds integer rows whose true values are the entries over the
    common denominator ``d``; its rows past ``len(basis)`` are objective
    rows. Each entry is, up to one common sign, a minor of the initial
    integer tableau (Bareiss), so every division below is exact. The
    denominator becomes the pivot and is kept positive by negating the
    tableau when the pivot is negative.
    """
    prow = tab[r]
    p = prow[c]
    for idx, row in enumerate(tab):
        if idx != r:
            tab[idx] = _eliminate(row, prow, p, d, c)
    basis[r] = c
    if p < 0:
        tab[:] = [[-v for v in row] for row in tab]
        p = -p
    return p


def _iterate(tab, basis, d, allowed_cols):
    """Maximize the last row of ``tab`` with Bland's rule; returns the status,
    'optimal' or 'unbounded', and the final common denominator."""
    while True:
        obj = tab[-1]
        enter = None
        for j in range(allowed_cols):
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return "optimal", d
        best_r = None
        for r in range(len(basis)):
            coef = tab[r][enter]
            if coef > 0:
                rhs = tab[r][-1]
                if best_r is None:
                    best_r, best_rhs, best_coef = r, rhs, coef
                    continue
                # rhs / coef against best_rhs / best_coef; both coefs are > 0
                left, right = rhs * best_coef, best_rhs * coef
                if left < right or (left == right and basis[r] < basis[best_r]):
                    best_r, best_rhs, best_coef = r, rhs, coef
        if best_r is None:
            return "unbounded", d
        d = _pivot(tab, basis, d, best_r, enter)


_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def solve_lp(lp: LinearProgram) -> LpResult:
    n = len(lp.objective)

    # scale rows to integers; make every rhs nonnegative and every
    # homogeneous ">=" row a "<=" row, so that it starts basic on its slack
    tab, rels, scales = [], [], []
    for coeffs, rel, rhs in lp.rows:
        row, scale = _integer_row([*coeffs, rhs])
        if row[-1] < 0 or (row[-1] == 0 and rel == ">="):
            row = [-v for v in row]
            rel = _FLIP[rel]
            scale = -scale
        tab.append(row)
        rels.append(rel)
        scales.append(scale)

    n_slack = sum(1 for rel in rels if rel != "=")
    n_art = sum(1 for rel in rels if rel != "<=")
    first_art = n + n_slack
    total = first_art + n_art
    basis = []
    slack_at, art_at = n, first_art
    for row, rel in zip(tab, rels):
        row[n:n] = [0] * (n_slack + n_art)
        if rel == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = -1
            slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
    # the column holding row r's unit entry at the start reads its dual
    unit = list(basis)
    dropped = set()

    d = 1
    if n_art:
        obj1 = [0] * first_art + [-1] * n_art + [0]
        for row, b in zip(tab, basis):
            if b >= first_art:
                obj1 = [v + w for v, w in zip(obj1, row)]
        tab.append(obj1)
        _, d = _iterate(tab, basis, d, total)
        if tab.pop()[-1] > 0:
            return LpResult(status="infeasible")
        # pivot remaining zero-level artificials out, or drop redundant rows
        r = 0
        while r < len(basis):
            if basis[r] >= first_art:
                col = next((j for j in range(first_art) if tab[r][j] != 0), None)
                if col is None:
                    dropped.add(basis[r])
                    del tab[r]
                    del basis[r]
                    continue
                d = _pivot(tab, basis, d, r, col)
            r += 1

    objective, obj_scale = _integer_row(lp.objective)
    if lp.sense == "min":
        objective = [-c for c in objective]
    obj = [d * c for c in objective] + [0] * (total - n + 1)
    for row, b in zip(tab, basis):
        if b < n and objective[b] != 0:
            coef = objective[b]
            obj = [v - coef * w for v, w in zip(obj, row)]
    tab.append(obj)
    status, d = _iterate(tab, basis, d, first_art)
    if status == "unbounded":
        return LpResult(status="unbounded")
    obj = tab.pop()
    x = [ZERO] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(row[-1], d)
    del tab
    # the reduced cost of a row's unit column is minus its dual; undo the
    # row's and the objective's scaling
    y = [ZERO if u in dropped else Fraction(-scale * obj[u], d * obj_scale)
         for scale, u in zip(scales, unit)]
    return LpResult(status="optimal", x=tuple(x), value=_certify(lp, x, y))


def _certify(lp: LinearProgram, x, y) -> Fraction:
    """Prove x optimal for ``lp`` with the dual y; returns the value c.x.

    Runs exactly on the original rows and objective, apart from the tableau.
    With c negated for "min", x must satisfy every row and x >= 0; y needs
    y_i >= 0 on "<=" rows and y_i <= 0 on ">=" rows, A^T y >= c and
    b.y == c.x, and weak duality then makes x optimal. Raises RuntimeError
    on any mismatch.
    """
    sign = 1 if lp.sense == "max" else -1
    if len(x) != len(lp.objective) or len(y) != len(lp.rows):
        raise RuntimeError("LP certificate: wrong length")
    support = [(j, v) for j, v in enumerate(x) if v != 0]
    if any(v < 0 for _, v in support):
        raise RuntimeError("LP certificate: x has a negative entry")
    x_den = lcm(*[v.denominator for _, v in support])
    x_num = [(j, v.numerator * (x_den // v.denominator)) for j, v in support]
    # A^T y over the common denominator ay_den, grown as duals come in
    ay, ay_den = [0] * len(x), 1
    dual_value = ZERO
    for (coeffs, rel, rhs), yi in zip(lp.rows, y):
        ints, scale = _integer_row([*coeffs, rhs])
        b = ints.pop() * x_den
        lhs = sum(ints[j] * v for j, v in x_num)
        if (lhs > b and rel != ">=") or (lhs < b and rel != "<="):
            raise RuntimeError("LP certificate: x violates a row")
        if (yi < 0 and rel == "<=") or (yi > 0 and rel == ">="):
            raise RuntimeError("LP certificate: a dual has the wrong sign")
        if yi == 0:
            continue
        dual_value += yi * rhs
        z = yi / scale
        if ay_den % z.denominator:
            grow = z.denominator // gcd(ay_den, z.denominator)
            ay = [v * grow for v in ay]
            ay_den *= grow
        zn = z.numerator * (ay_den // z.denominator)
        ay = [v + zn * w for v, w in zip(ay, ints)]
    objective, obj_scale = _integer_row(lp.objective)
    if any(v * obj_scale < sign * c * ay_den for v, c in zip(ay, objective)):
        raise RuntimeError("LP certificate: the dual violates A^T y >= c")
    value = sum((lp.objective[j] * v for j, v in support), ZERO)
    if sign * value != dual_value:
        raise RuntimeError("LP certificate: primal and dual values differ")
    return value


# ---------------------------------------------------------------------------
# equilibrium benchmarks

def _profiles(inst: Instance) -> list:
    count = 1 << inst.m
    check_profile_count(count, "equilibrium LP")
    return list(range(count))


def _cce_rows(inst: Instance, a: Contract, profiles, fvals):
    """One >= 0 row per (agent, fixed deviation slice)."""
    rows = []
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        for T in submasks(mask):
            coeffs = []
            cT = inst.cost(T)
            for S in profiles:
                dev = inst.reward.value((S & ~mask) | T)
                coeffs.append(a[i] * (fvals[S] - dev) - inst.cost(S & mask) + cT)
            rows.append((tuple(coeffs), ">=", ZERO))
    return rows


def _ce_rows(inst: Instance, a: Contract, profiles, fvals):
    """Conditional rows multiplied through by the recommendation's marginal."""
    rows = []
    for i in range(inst.n):
        mask = inst.agent_mask(i)
        for R in submasks(mask):
            cR = inst.cost(R)
            for T in submasks(mask):
                if T == R:
                    continue
                cT = inst.cost(T)
                coeffs = []
                for S in profiles:
                    if S & mask == R:
                        dev = inst.reward.value((S & ~mask) | T)
                        coeffs.append(a[i] * (fvals[S] - dev) - cR + cT)
                    else:
                        coeffs.append(ZERO)
                rows.append((tuple(coeffs), ">=", ZERO))
    return rows


def _solve_distribution(inst, a, rows, profiles, fvals, sense):
    rows = list(rows)
    rows.append(((ONE,) * len(profiles), "=", ONE))
    lp = LinearProgram(objective=tuple(fvals[S] for S in profiles),
                       sense=sense, rows=tuple(rows))
    result = solve_lp(lp)
    if result.status != "optimal":
        raise RuntimeError(f"equilibrium LP came back {result.status}")
    support = tuple((S, p) for S, p in zip(profiles, result.x) if p > 0)
    dist = JointDistribution(support)
    return dist, (ONE - a.total()) * result.value


def best_cce(inst: Instance, a: Contract):
    """CCE maximizing expected reward; returns it with the principal utility."""
    profiles = _profiles(inst)
    fvals = [inst.reward.value(S) for S in profiles]
    return _solve_distribution(inst, a, _cce_rows(inst, a, profiles, fvals),
                               profiles, fvals, "max")


def worst_cce(inst: Instance, a: Contract):
    profiles = _profiles(inst)
    fvals = [inst.reward.value(S) for S in profiles]
    return _solve_distribution(inst, a, _cce_rows(inst, a, profiles, fvals),
                               profiles, fvals, "min")


def best_ce(inst: Instance, a: Contract):
    profiles = _profiles(inst)
    fvals = [inst.reward.value(S) for S in profiles]
    return _solve_distribution(inst, a, _ce_rows(inst, a, profiles, fvals),
                               profiles, fvals, "max")


def enumerate_pne(inst: Instance, a: Contract) -> list:
    """All pure equilibria with principal utilities, best first."""
    found = []
    for S in _profiles(inst):
        if is_pne(inst, S, a):
            found.append((S, principal_utility(inst, S, a)))
    found.sort(key=lambda e: (-e[1], e[0]))
    return found


def best_pne_binary(inst: Instance):
    """Best pure equilibrium in the binary case via the closed form
    g(S) = f(S) * (1 - sum_{i in S} c_i / f(i | S\\{i})).

    A free action needs no share. Sets containing a costly action whose
    marginal is not positive cannot be induced and are skipped. Returns
    (profile, inducing contract, utility).
    """
    if not inst.binary:
        raise ValueError("closed-form search needs binary actions")
    count = 1 << inst.m
    check_profile_count(count, "best_pne_binary")
    f = inst.reward.value
    best = None
    for S in range(count):
        fS = f(S)
        shares = [ZERO] * inst.n
        share_sum = ZERO
        redundant = False
        for j in range(inst.m):
            if not S >> j & 1:
                continue
            if inst.costs[j] == 0:
                continue
            marginal = fS - f(S & ~(1 << j))
            if marginal <= 0:
                redundant = True
                break
            shares[j] = inst.costs[j] / marginal
            share_sum += shares[j]
        if redundant:
            continue
        g = fS * (ONE - share_sum)
        if best is None or g > best[2]:
            best = (S, shares, g)
    S, shares, g = best
    return S, Contract(tuple(shares)), g


# ---------------------------------------------------------------------------
# contract grid search

@dataclass(frozen=True)
class GapReport:
    objective: str
    resolution: int
    cells: tuple  # (Contract, value)
    best_contract: Contract
    best_value: Fraction
    witness: object  # profile for best_pne, JointDistribution otherwise


_OBJECTIVES = ("best_pne", "best_cce", "worst_cce", "best_ce")


def _grid_contracts(n: int, resolution: int):
    """Row-major sweep of {0, 1/r, ..., 1}^n keeping cells with sum <= 1."""
    def rec(prefix, remaining):
        if not remaining:
            yield Contract(tuple(prefix))
            return
        budget = ONE - sum(prefix, ZERO)
        for k in range(resolution + 1):
            v = Fraction(k, resolution)
            if v > budget:
                break
            yield from rec(prefix + [v], remaining - 1)
    yield from rec([], n)


def evaluate_cell(inst: Instance, a: Contract, objective: str):
    """Principal utility of the objective at one contract, with a witness."""
    if objective == "best_pne":
        pnes = enumerate_pne(inst, a)
        return pnes[0][1], pnes[0][0]
    solver = {"best_cce": best_cce, "worst_cce": worst_cce, "best_ce": best_ce}
    dist, utility = solver[objective](inst, a)
    return utility, dist


def grid_search(inst: Instance, resolution: int, objective: str,
                explicit_cells: Sequence[Contract] = ()) -> GapReport:
    """Sweep the contract grid (plus any explicit contracts) and pick the best
    cell. worst_cce is also maximized: the value of a contract is its worst
    case, and we search for the contract whose worst case is largest.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    cells = []
    best = None
    for a in list(_grid_contracts(inst.n, resolution)) + list(explicit_cells):
        value, witness = evaluate_cell(inst, a, objective)
        cells.append((a, value))
        if best is None or value > best[1]:
            best = (a, value, witness)
    return GapReport(objective=objective, resolution=resolution,
                     cells=tuple(cells), best_contract=best[0],
                     best_value=best[1], witness=best[2])

"""Exact rational LP solver and equilibrium benchmarks built on it.

The simplex is a two-phase tableau method with Bland's anti-cycling rule. It
pivots fraction-free over integers: each row is scaled to integers once (a
row of ints is taken as it is, its types counted at C speed by
``core.over_common_denominator``), and the tableau holds Python ints over one
common denominator d, updated by Bareiss pivots whose divisions are exact.

A presolve sorts the integer rows by one rule (Andersen & Andersen, Math.
Programming 1995): a row with rhs 0, a relation other than "=" and entries
of one sign is decided by x >= 0 alone. Every x >= 0 meets it when every
entry is >= 0 on a ">=" row or <= 0 on a "<=" row, all 0 included: the row
is met and left out, with dual 0 and no pivot changed (``_presolve`` says
why). With the other sign, not all 0, the terms a_j x_j share that sign and
sum to 0, so x_j = 0 wherever a_j != 0: the row is forcing, and it leaves
the tableau with those columns. A forcing row's dual takes the sign its
relation needs, so that w_r a_rj = k |a_rj| only adds to each column's side
of A^T w >= c, and k is the least integer that covers what that side still
lacks on the row's columns; the row is 0 on every kept column and its rhs
is 0, so neither another column nor the dual value moves. "=" rows stay in,
for phase 1 to drive out. The tableau copies each kept row over the gcd of
its entries and rhs: a positive row scale changes no ratio test and no
phase-2 reduced cost.

Homogeneous ">=" rows are negated into "<=" rows that start basic on their
slacks, so only rows with a positive right-hand side that are not "<=" get
an artificial. A crash step then moves each artificial row onto the first
structural column where the row has a positive entry and wins the column's
ratio test; that pivot keeps the basis feasible. Phase 1 runs only if an
artificial is still basic after it, with its objective row over the
denominator the crash left. Before an optimum is returned it is certified in
integers on the program's rows as scaled to integers before the tableau
copies them, every row and every column: x, the tableau's right-hand sides
over d, is primal feasible, the duals read off the final tableau over d
(and the met and forcing rows' duals) are dual feasible, and the two
objective values agree. The certificate takes only those integers from the
tableau, so a corrupted pivot is still caught. Exactness matters:
equilibria hold with ties, so every comparison must be decided without
rounding.

``solve_lp`` runs in two halves, one simplex. ``_region`` builds what the
rows alone decide: the integer rows, the presolve, the tableau, the crash
and phase 1, that is the feasible region with a feasible basis.
``_optimum`` runs phase 2 for the objective on a copy of that tableau, reads
the duals and certifies the optimum on every row. ``LpResult.region`` is
the region phase 2 started from, and ``solve_lp(lp, region)`` takes one
built for the same rows: phase 2 then starts from the same basis, so it
takes the same pivots to the same vertex as a fresh solve.

The equilibrium benchmarks and the ``fixtures`` samplers are one LP,
``equilibrium_lp``: every regret row the distribution verifiers check
(``equilibria.regret_rows``), follow - deviate >= 0, written over every
profile with 0 outside the row's group, then sum p = 1. Rows with no
negative entry are met, and most rows of CCE and CE are forcing. An
instance keeps, per concept, the last contract's rows and region, so the
best and worst CCE and the samplers at one contract build them once.
The LP is integer from the reward table to the certified value: the rows
read f as the integer pairs of ``RewardFunction.table()``, each profile its
own position, the default objective is the table's numerators over their
lcm L, and E[f] is the certified optimum over L, with no ``Fraction`` per
profile. A sampler's random objective is integers too.
Bland's rule meets the kept columns in their old order, so at a tied
optimum the vertex can move; the value cannot.
Phase 1 never runs on these LPs: sum p = 1 is their only row with an
artificial, and the crash pivots it onto the first kept profile whose point
mass meets every regret row, which for CE and CCE rows is a PNE. One always
exists, because the contract game is a weighted potential game with
potential f(S) - sum_i c(S_i) / a_i (Monderer & Shapley, GEB 1996; an agent
with a_i = 0 has a dominant cheapest slice), and no forcing row drops it,
since its point mass meets every row. Every dropout row reads 0 at profile
0, so on dropout rows the crash takes profile 0.

The PNE searches (``enumerate_pne``, the best_pne cells of ``grid_search``
and ``best_pne``, the best PNE over all contracts) read one table,
``_pne_table``: f over every profile, from the reward's integer table
(``RewardFunction.table``, no oracle call), and the slice costs the
instance lists once (``Instance.slice_costs``, integers over
``cost_den``). Its one helper, ``interval``, writes the PNE condition: the
exact interval of shares under which an agent keeps its slice of a profile,
as integer pairs. ``_pne_bounds`` lists every profile's intervals; each
instance keeps them on its first read (``_pne_rows``), ranked by f
descending, and the caps are still checked on every read. A contract's
shares, the principal's among them, are integer pairs, compared with the
kept intervals in integers. ``_ranked_pnes`` lists a contract's PNEs best
first by the sign of the principal's share: ``enumerate_pne`` returns them
all, and ``_best_pne``, which ``evaluate_cell`` and the grid read, the
first. A grid cell carries its shares as integer pairs (k, r). Only
returned values become ``Fraction``s. ``best_pne`` (which needs f >= 0)
sweeps ``_pne_table`` afresh on every call and keeps nothing: it skips a
profile whose f(S) cannot beat the best value so far and leaves a profile
as soon as its lower ends lose.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop
from itertools import chain
from math import comb, gcd, lcm
from typing import Callable, Optional, Sequence

from .core import (
    Contract,
    Instance,
    ONE,
    ZERO,
    check_agent_caps,
    check_enum_bits,
    check_profile_count,
    over_common_denominator,
)
from .equilibria import JointDistribution, regret_rows, require_pne


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
    # the region phase 2 started from; None when the program is infeasible
    region: Optional[_Region] = field(default=None, repr=False, compare=False)


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


def _presolve(row, rel) -> str:
    """The presolve's verdict on the integer row (rhs last): "met",
    "forcing" or "kept" (see the module docstring).

    A met row's absence changes no pivot of any LP: its slack is s = |a| . x,
    the sum of |a_j| x_j over the basic x_j. If an entering column makes s
    fall at rate r_s > 0, some x_j with a_j != 0 falls at a rate r_j > 0,
    and the least such x_j / r_j is at most s / r_s (a mediant). Bland's
    rule breaks a tie for the lower index, a structural one, so s never
    leaves the basis, no other row changes, and its dual is 0.
    """
    if row[-1] or rel == "=":
        return "kept"
    lo, hi = (min(row), max(row)) if rel == ">=" else (-max(row), -min(row))
    if lo >= 0:
        return "met"
    return "forcing" if hi <= 0 else "kept"


@dataclass(frozen=True)
class _Region:
    """What ``solve_lp`` derives from a program's rows alone: its feasible
    region, as the tableau after the crash and phase 1.

    ``rows`` is the program's ``rows`` tuple it was built from, not a copy.
    ``scaled[r]`` is row r in integers, rhs last, as the certificate reads
    it, or None where that is the row as given, ``[*coeffs, rhs]``, so that
    an integer row is kept once. The met and forcing rows are out of the
    tableau, and so are the ``forced`` columns; ``cols`` are the others, in
    order. ``duals`` lists (row, sign, unit column) for each row whose dual
    phase 2 reads off the tableau. ``tab`` (no objective row), ``basis``
    and ``d`` are never changed once built: phase 2 pivots a copy of the
    two lists, and a pivot replaces the rows it changes rather than writing
    into them.
    """

    rows: tuple
    scaled: list
    forcing: list
    forced: tuple
    cols: list
    duals: list
    tab: list
    basis: list
    d: int
    first_art: int
    total: int


def solve_lp(lp: LinearProgram, region: Optional[_Region] = None) -> LpResult:
    """Solve ``lp`` exactly: build its region (``_region``) unless ``region``,
    one built for the same rows, is given, then run phase 2 and certify the
    optimum (``_optimum``). Raises ValueError if ``region`` was built for
    other rows."""
    if region is None:
        region = _region(lp)
        if region is None:
            return LpResult(status="infeasible")
    elif region.rows != lp.rows:
        raise ValueError("the region was built for other rows")
    return _optimum(lp, region)


def _region(lp: LinearProgram) -> Optional[_Region]:
    """The feasible region of ``lp``'s rows, None if it is empty: the rows
    scaled to integers, the presolve, the tableau, the crash and phase 1."""
    # scale each row to integers once; the certificate reads these rows.
    # The tableau copies only the kept rows, each over its gcd
    rows, scaled, at, forcing = [], [], [], []  # at: the tableau's rows
    for r, (coeffs, rel, rhs) in enumerate(lp.rows):
        given = [*coeffs, rhs]
        row = over_common_denominator(given)[0]
        kind = _presolve(row, rel)
        if kind == "kept":
            at.append(r)
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
        elif kind == "forcing":
            forcing.append(r)
        rows.append(row)
        scaled.append(None if row is given else row)
    forced = {j for r in forcing for j, v in enumerate(rows[r]) if v}
    cols = [j for j in range(len(lp.objective)) if j not in forced]
    n = len(cols)

    # the tableau copies those rows on the unforced columns, with every rhs
    # nonnegative and every homogeneous ">=" row made a "<=" row, so that it
    # starts basic on its slack
    keep = cols + [-1]
    tab, rels, signs = [], [], []
    for r in at:
        row, rel = rows[r], lp.rows[r][1]
        flip = row[-1] < 0 or (row[-1] == 0 and rel == ">=")
        tab.append([-row[j] for j in keep] if flip else [row[j] for j in keep])
        rels.append(_FLIP[rel] if flip else rel)
        signs.append(-1 if flip else 1)

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

    # crash: a row's artificial leaves the basis for the first structural
    # column j where the row has a_rj > 0 and wins the ratio test,
    # rhs_k a_rj >= rhs_r a_kj for every row k. Every rhs is nonnegative, so
    # only a row with a_kj > 0 can fail that, and the pivot keeps the basis
    # feasible. On an equilibrium LP the only artificial row is sum p = 1 and
    # every other row is a homogeneous regret row, so a column qualifies
    # exactly when the point mass on its profile meets every regret row: a
    # PNE does, and one always exists (see the module docstring).
    d = 1
    for r, b in enumerate(basis):
        if b < first_art:
            continue
        row = tab[r]
        rhs = row[-1]
        for j in range(n):
            a_rj = row[j]
            if a_rj > 0 and all(other[-1] * a_rj >= rhs * other[j] for other in tab):
                d = _pivot(tab, basis, d, r, j)
                break

    if any(b >= first_art for b in basis):
        # phase 1 over the current denominator d: maximize -(sum artificials)
        obj1 = [0] * first_art + [-d] * n_art + [0]
        for row, b in zip(tab, basis):
            if b >= first_art:
                obj1 = [v + w for v, w in zip(obj1, row)]
        tab.append(obj1)
        _, d = _iterate(tab, basis, d, total)
        if tab.pop()[-1] > 0:
            return None
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

    duals = [(r, s_r, u) for r, s_r, u in zip(at, signs, unit) if u not in dropped]
    return _Region(rows=lp.rows, scaled=scaled, forcing=forcing, forced=tuple(forced),
                   cols=cols, duals=duals, tab=tab, basis=basis, d=d,
                   first_art=first_art, total=total)


def _optimum(lp: LinearProgram, region: _Region) -> LpResult:
    """Phase 2 of ``lp`` from ``region``, which must be its rows' region:
    the optimum, certified by ``_certify`` on every row, or 'unbounded'."""
    objective, obj_scale = over_common_denominator(lp.objective)
    sign = 1 if lp.sense == "max" else -1
    cols = region.cols
    n = len(cols)
    tab, basis, d = list(region.tab), list(region.basis), region.d

    cost = [sign * objective[j] for j in cols]
    obj = [d * c for c in cost] + [0] * (region.total - n + 1)
    for row, b in zip(tab, basis):
        if b < n and cost[b] != 0:
            coef = cost[b]
            obj = [v - coef * w for v, w in zip(obj, row)]
    tab.append(obj)
    status, d = _iterate(tab, basis, d, region.first_art)
    if status == "unbounded":
        return LpResult(status="unbounded", region=region)
    obj = tab.pop()
    x = [0] * len(objective)
    for row, b in zip(tab, basis):
        if b < n:
            x[cols[b]] = row[-1]
    del tab
    rows = [row or [*coeffs, rhs]
            for row, (coeffs, _, rhs) in zip(region.scaled, lp.rows)]
    # the reduced cost of a row's unit column is minus its dual over
    # d * obj_scale; a flipped row's dual changes sign
    w = [0] * len(rows)
    for r, s_r, u in region.duals:
        w[r] = -s_r * obj[u]
    if region.forcing:
        # need[j]: what sum_r w_r a_rj >= +-c_j d still lacks on a forced
        # column. A forcing dual of its relation's sign adds k |a_rj| there
        # and nothing elsewhere (see the module docstring), so each row takes
        # the least k that covers its columns
        need = {j: sign * objective[j] * d for j in region.forced}
        for r, w_r in enumerate(w):
            if w_r:
                row = rows[r]
                for j in need:
                    need[j] -= w_r * row[j]
        for r in region.forcing:
            row = rows[r]
            k = max(-(-need[j] // abs(row[j])) for j in need if row[j])
            if k > 0:
                w[r] = -k if lp.rows[r][1] == ">=" else k
                for j in need:
                    need[j] -= k * abs(row[j])
    value = _certify(lp, rows, objective, x, d, w)
    return LpResult(status="optimal",
                    x=tuple(Fraction(v, d) if v else ZERO for v in x),
                    value=Fraction(value, d * obj_scale), region=region)


def _certify(lp: LinearProgram, rows, objective, x, d, w) -> int:
    """Prove x / d optimal for ``lp`` with the dual y = w / (d * s); returns
    c . x, the value's numerator over d * s.

    ``rows`` (rhs last) and ``objective`` are ``lp``'s rows and objective
    scaled to integers, s being the objective's scale, and y is the dual of
    those integer rows, each a positive multiple of its row of ``lp``. They
    are scaled once, before the tableau copies them, so a corrupted tableau
    cannot bend them to fit. x, d and w are the tableau's integers, d > 0,
    with x 0 and w chosen outside the tableau on the forcing rows' columns
    and on the met and forcing rows. With c negated for "min", x must satisfy
    every row, a_r . x against b_r * d under the row's relation, and
    x >= 0; w needs w_r >= 0 on "<=" rows and w_r <= 0 on ">=" rows,
    sum_r w_r a_rj >= c_j * d for every column j and
    sum_r w_r b_r == c . x, and weak duality then makes x optimal. Raises
    RuntimeError on any mismatch.
    """
    sign = 1 if lp.sense == "max" else -1
    if len(x) != len(objective) or len(w) != len(rows):
        raise RuntimeError("LP certificate: wrong length")
    if d < 1:
        raise RuntimeError("LP certificate: the denominator is not positive")
    support = [(j, v) for j, v in enumerate(x) if v]
    if any(v < 0 for _, v in support):
        raise RuntimeError("LP certificate: x has a negative entry")
    dual = [0] * (len(x) + 1)  # sum_r w_r (a_r, b_r)
    for row, (_, rel, _), w_r in zip(rows, lp.rows, w):
        lhs, b = sum(row[j] * v for j, v in support), row[-1] * d
        if (lhs > b and rel != ">=") or (lhs < b and rel != "<="):
            raise RuntimeError("LP certificate: x violates a row")
        if (w_r < 0 and rel == "<=") or (w_r > 0 and rel == ">="):
            raise RuntimeError("LP certificate: a dual has the wrong sign")
        if w_r:
            dual = [v + w_r * a for v, a in zip(dual, row)]
    dual_value = dual.pop()
    if any(v < sign * c * d for v, c in zip(dual, objective)):
        raise RuntimeError("LP certificate: the dual violates A^T y >= c")
    value = sum(objective[j] * v for j, v in support)
    if sign * value != dual_value:
        raise RuntimeError("LP certificate: primal and dual values differ")
    return value


# ---------------------------------------------------------------------------
# equilibrium benchmarks

def _profiles(inst: Instance, what: str) -> range:
    count = 1 << inst.m
    check_profile_count(count, what)
    return range(count)


def equilibrium_lp(inst: Instance, a: Contract, concept: str, sense: str = "max",
                   objective: Optional[Callable[[int], Fraction]] = None):
    """An optimal distribution over all profiles subject to the regret rows of
    ``concept``, with the certified optimum of the objective it solved.

    ``objective(S)`` weighs profile S, f(S) by default, when the optimum is
    E[f] under the distribution. f is tabulated once per instance, as the
    integer pairs of ``inst.reward.table()``, for the rows and the default
    objective, which is the table's numerators over their lcm L: the
    certified optimum ``LpResult.value`` is then L E[f]. Raises RuntimeError
    unless the LP is solved to optimality.

    The feasible region depends on the instance, the contract and the
    concept only, so the instance keeps, per concept, the last contract,
    the table and the region ``solve_lp`` returned, whose ``rows`` are the
    LP rows. A later call with that contract and concept, whatever its
    objective and sense, reads no reward and builds no row: it hands the
    region to ``solve_lp``, which runs phase 2 from the kept crash basis,
    so it takes the pivots a fresh solve would, and still certifies every
    row. The caps are checked on every call.
    """
    profiles = _profiles(inst, "equilibrium LP")
    kept = inst._lp_cache
    entry = kept.get(concept)
    if entry is not None and entry[0] == a:
        _, table, region = entry
        rows = region.rows
        if concept != "dropout":  # the caps regret_rows checks
            check_agent_caps(inst, f"{concept} rows")
    else:
        # f is read once per instance: any concept's entry holds the table
        table = next((e[1] for e in kept.values()), None) or inst.reward.table()
        rows = []
        for *_, members, follow, deviate, _ in regret_rows(inst, a, concept, profiles,
                                                           table.__getitem__):
            row = [0] * len(profiles)  # the dense LP row: 0 outside the members
            for k, u, v in zip(members, follow, deviate):
                row[k] = u - v
            rows.append((tuple(row), ">=", 0))
        rows.append(((1,) * len(profiles), "=", 1))
        rows, region = tuple(rows), None
    if objective is None:
        den = lcm(*{d for _, d in table})
        weights = [num * (den // d) for num, d in table]
    else:
        den = 1
        weights = [objective(S) for S in profiles]
    result = solve_lp(LinearProgram(objective=tuple(weights), sense=sense, rows=rows),
                      region)
    if result.status != "optimal":
        raise RuntimeError(f"equilibrium LP came back {result.status}")
    kept[concept] = (a, table, result.region)
    dist = JointDistribution(tuple(
        (S, p) for S, p in zip(profiles, result.x) if p))
    return dist, result.value / den


def _principal_lp(inst: Instance, a: Contract, concept: str, sense: str):
    """``equilibrium_lp`` under its default objective, E[f], with the
    principal's utility (1 - sum a) E[f]."""
    dist, reward = equilibrium_lp(inst, a, concept, sense)
    return dist, (ONE - a.total()) * reward


def best_cce(inst: Instance, a: Contract):
    """CCE maximizing expected reward; returns it with the principal utility."""
    return _principal_lp(inst, a, "cce", "max")


def worst_cce(inst: Instance, a: Contract):
    return _principal_lp(inst, a, "cce", "min")


def best_ce(inst: Instance, a: Contract):
    return _principal_lp(inst, a, "ce", "max")


def _check_pne_caps(inst: Instance) -> None:
    """The caps on the PNE table: 2^m profiles and each agent's subsets."""
    _profiles(inst, "PNE table")
    check_agent_caps(inst, "PNE table")


def _pne_table(inst: Instance):
    """What the PNE searches read: f over every profile as (numerator,
    denominator) pairs, from ``inst.reward.table()`` without a ``value``
    call, each agent's slice as (mask, slice costs), and
    ``interval(S, mask, costs)``, the integer share interval of that agent
    at S.

    Slice costs are ``Instance.slice_costs``, integers over
    ``c_den = inst.cost_den``; slice T of the agent is ``k << shift`` for
    the k-th cost. f keeps the reward's denominators: one lcm over 2^m
    arbitrary values can run to thousands of digits. No ``Fraction`` is
    built here; the searches build one for each value they return.
    """
    _check_pne_caps(inst)
    fracs = inst.reward.table()
    slices = [(inst.agent_mask(i), inst.slice_costs(i)) for i in range(inst.n)]
    c_den = inst.cost_den

    def interval(S, mask, costs):
        """(lo_n, lo_d, hi_n, hi_d), denominators positive: the agent keeps
        its slice of S exactly when lo_n / lo_d <= a_i <= hi_n / hi_d, within
        [0, 1]; None when no share does.

        Against T it keeps S_i when a_i * (f(S) - f(S_-i | T)) >= c(S_i) - c(T),
        a bound diff / gain on a_i whose side is the sign of the gain. With
        f(S) = n_S / d_S, gain = (n_S d_T - n_T d_S) c_den and
        diff = (c(S_i) - c(T)) d_S d_T.
        """
        shift, cost = costs
        n_S, d_S = fracs[S]
        rest, own = S & ~mask, S & mask
        own_cost = cost[own >> shift]
        lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
        for k, cost_T in enumerate(cost):
            T = k << shift
            if T == own:
                continue
            n_T, d_T = fracs[rest | T]
            gain = (n_S * d_T - n_T * d_S) * c_den
            diff = (own_cost - cost_T) * d_S * d_T
            if gain > 0:
                if diff * lo_d > lo_n * gain:
                    lo_n, lo_d = diff, gain
            elif gain < 0:
                if diff * hi_d > hi_n * gain:  # diff/gain < hi, gain < 0
                    hi_n, hi_d = -diff, -gain
            elif diff > 0:
                return None
        if lo_n * hi_d > hi_n * lo_d:
            return None
        return lo_n, lo_d, hi_n, hi_d

    return fracs, slices, interval


def _pne_bounds(inst: Instance):
    """Yield each profile that is a PNE of some contract as (S, f(S), bounds),
    f(S) as a (numerator, denominator) pair.

    S is a PNE of a exactly when lo_n / lo_d <= a_i <= hi_n / hi_d for every
    (i, (lo_n, lo_d), (hi_n, hi_d)) in bounds, None marking an open side.
    Bounds every share in [0, 1] meets are left out.
    """
    fracs, slices, interval = _pne_table(inst)
    for S, fS in enumerate(fracs):
        bounds = []
        for i, (mask, costs) in enumerate(slices):
            bound = interval(S, mask, costs)
            if bound is None:
                break  # no contract makes S a PNE
            lo_n, lo_d, hi_n, hi_d = bound
            lo = (lo_n, lo_d) if lo_n else None
            hi = (hi_n, hi_d) if hi_n < hi_d else None
            if lo or hi:
                bounds.append((i, lo, hi))
        else:
            yield S, fS, tuple(bounds)


def _pne_rows(inst: Instance) -> tuple:
    """The rows of ``_pne_bounds(inst)``, ranked by f(S) descending and the
    smaller profile first on a tie (a stable sort of the profile order),
    built on the first read and kept on the instance. The caps are checked
    on every read, so a cap tightened since the build still binds."""
    rows = inst._pne_cache
    if rows is None:  # _pne_table checks the caps
        rows = tuple(sorted(_pne_bounds(inst), key=lambda row: -Fraction(*row[1])))
        object.__setattr__(inst, "_pne_cache", rows)
    else:
        _check_pne_caps(inst)
    return rows


def _shares(a: Contract):
    """The shares of ``a`` as integer pairs (p, q), q > 0, and the
    principal's share 1 - sum a_i as one such pair, L - sum p (L / q) over
    L = lcm(q), not always in lowest terms."""
    shares = [(v.numerator, v.denominator) for v in a.alpha]
    den = lcm(*[q for _, q in shares])
    return shares, (den - sum(p * (den // q) for p, q in shares), den)


def _ranked_pnes(rows, shares, s_n):
    """(S, f(S)) for the PNEs in ``rows`` of the contract whose shares are
    the integer pairs ``shares``, best first for a principal's share of the
    sign of ``s_n``, the smaller S first on a tie: lazily in the rows' order
    (f descending) at s_n > 0, the smallest S first at s_n = 0 (every PNE is
    worth 0) and the smallest f at s_n < 0 (shares summing above 1), off a
    heap, so that the first costs about a ``min``."""
    heap = []
    for S, fS, bounds in rows:
        for i, lo, hi in bounds:
            p, q = shares[i]
            if (lo and p * lo[1] < lo[0] * q) or (hi and p * hi[1] > hi[0] * q):
                break
        else:
            if s_n > 0:
                yield S, fS
            else:
                heap.append((Fraction(*fS) if s_n else 0, S, fS))
    heapify(heap)
    while heap:
        _, S, fS = heappop(heap)
        yield S, fS


def _best_pne(rows, shares, share):
    """The principal's utility at the first PNE of ``_ranked_pnes``, as an
    integer pair (numerator, positive denominator), and the profile; ``share``
    = (s_n, s_d), s_d > 0, is the principal's share. Every contract has a PNE."""
    s_n, s_d = share
    for S, (n_S, d_S) in _ranked_pnes(rows, shares, s_n):
        return (s_n * n_S, s_d * d_S), S
    raise RuntimeError("no PNE found, though every contract has one")


def enumerate_pne(inst: Instance, a: Contract) -> list:
    """All pure equilibria with principal utilities, best first, the smaller
    profile first on a tie."""
    inst.check_contract(a)
    shares, (s_n, s_d) = _shares(a)
    return [(S, Fraction(s_n * n_S, s_d * d_S))
            for S, (n_S, d_S) in _ranked_pnes(_pne_rows(inst), shares, s_n)]


def best_pne(inst: Instance):
    """The best pure equilibrium over all contracts, as (profile, inducing
    contract, principal utility); the smallest profile wins a tie.

    The cheapest contract that makes S a PNE pays each agent the lower end of
    its interval, so the best PNE is the largest (1 - sum lo(S)) * f(S) over
    the profiles whose lower ends sum to at most 1. Raises ValueError if some
    f(S) < 0: such a profile would rather pay more.

    With f >= 0 a row is worth at most f(S), so the sweep skips a profile
    whose f(S) is not above the best value so far (a tie goes to the earlier
    profile). It folds the other rows agent by agent, keeping sum lo as a
    reduced integer pair, and leaves a row as soon as an interval is empty,
    sum lo > 1 or (1 - sum lo) * f(S) is not above the best. An agent with
    no action in S is passed over: its slice costs 0, so against every T it
    has diff = -c(T) <= 0, and its interval is never empty and starts at 0.
    The answer is certified by ``require_pne`` (RuntimeError unless the
    contract makes S a PNE).
    """
    fracs, slices, interval = _pne_table(inst)
    best_S, best_n, best_d = None, -1, 1  # every PNE is worth at least 0
    for S, (n_S, d_S) in enumerate(fracs):
        if n_S < 0:  # checked before the skip, so no profile escapes it
            raise ValueError(
                f"best_pne needs f >= 0, but f({S}) = {Fraction(n_S, d_S)}")
        if n_S * best_d <= best_n * d_S:
            continue
        sum_n, sum_d = 0, 1
        for mask, costs in slices:
            if not S & mask:
                continue  # an idle agent's interval is never empty, lo = 0
            bound = interval(S, mask, costs)
            if bound is None:
                break
            lo_n, lo_d, _, _ = bound
            if lo_n:
                sum_n, sum_d = sum_n * lo_d + lo_n * sum_d, sum_d * lo_d
                g = gcd(sum_n, sum_d)
                sum_n, sum_d = sum_n // g, sum_d // g
                if sum_n > sum_d or ((sum_d - sum_n) * n_S * best_d
                                     <= best_n * sum_d * d_S):
                    break
        else:
            best_S, best_n, best_d = S, (sum_d - sum_n) * n_S, sum_d * d_S
    shares = [Fraction(*interval(best_S, mask, costs)[:2]) if best_S & mask else ZERO
              for mask, costs in slices]
    contract = Contract(tuple(shares))
    require_pne(inst, best_S, contract, "best PNE")
    return best_S, contract, Fraction(best_n, best_d)


def best_pne_binary(inst: Instance):
    """``best_pne`` behind a check that the actions are binary, every agent
    owning exactly one action (ValueError otherwise)."""
    if not inst.binary:
        raise ValueError("best_pne_binary needs binary actions")
    return best_pne(inst)


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


_LP_OBJECTIVES = {"best_cce": best_cce, "worst_cce": worst_cce, "best_ce": best_ce}
_OBJECTIVES = ("best_pne", *_LP_OBJECTIVES)


def _grid_contracts(n: int, resolution: int):
    """Row-major sweep of {0, 1/r, ..., 1}^n keeping cells with sum <= 1.

    Yields each cell as (contract, shares, share): the contract's share k_i / r
    also as the integer pair (k_i, r) in ``shares``, and the principal's
    share as (r - sum k_i, r), so a best_pne cell is decided without
    ``Fraction`` arithmetic.
    """
    r = resolution
    steps = [Fraction(k, r) for k in range(r + 1)]
    pairs = [(k, r) for k in range(r + 1)]
    cells = [((), r)]  # (k_1, ..., k_i), r - sum k
    for _ in range(n):
        cells = [(ks + (k,), left - k) for ks, left in cells for k in range(left + 1)]
    for ks, left in cells:
        yield (Contract(tuple(map(steps.__getitem__, ks))),
               list(map(pairs.__getitem__, ks)), (left, r))


def evaluate_cell(inst: Instance, a: Contract, objective: str):
    """Principal utility of the objective at one contract, with a witness."""
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "best_pne":
        inst.check_contract(a)
        (num, den), S = _best_pne(_pne_rows(inst), *_shares(a))
        return Fraction(num, den), S
    dist, utility = _LP_OBJECTIVES[objective](inst, a)
    return utility, dist


def grid_search(inst: Instance, resolution: int, objective: str,
                explicit_cells: Sequence[Contract] = ()) -> GapReport:
    """Sweep the contract grid (plus any explicit contracts) and pick the best
    cell. worst_cce is also maximized: the value of a contract is its worst
    case, and we search for the contract whose worst case is largest.

    A best_pne cell is ``_best_pne`` over the instance's kept PNE rows,
    ranked by f(S) descending, so a cell whose principal's share is positive
    stops at the first row whose bounds it meets. Each cell's value comes as
    an integer pair, and cells are compared by cross-multiplying; one
    ``Fraction`` is built per cell, for the report.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    check_enum_bits((comb(resolution + inst.n, inst.n) - 1).bit_length(),
                    "contract grid")
    explicit_cells = list(explicit_cells)
    for a in explicit_cells:
        inst.check_contract(a)
    if objective == "best_pne":
        rows = _pne_rows(inst)

        def evaluate(a, shares, share):
            return _best_pne(rows, shares, share)
    else:
        def evaluate(a, shares, share):
            value, witness = evaluate_cell(inst, a, objective)
            return (value.numerator, value.denominator), witness
    cells = []
    best = None
    for a, shares, share in chain(_grid_contracts(inst.n, resolution),
                                  ((a, *_shares(a)) for a in explicit_cells)):
        (num, den), witness = evaluate(a, shares, share)
        value = Fraction(num, den)
        cells.append((a, value))
        if best is None or num * best_den > best_num * den:  # both dens > 0
            best, best_num, best_den = (a, value, witness), num, den
    return GapReport(objective=objective, resolution=resolution,
                     cells=tuple(cells), best_contract=best[0],
                     best_value=best[1], witness=best[2])

"""Span recorder for the traced run.

It wraps contractlab's public functions from outside the library, in every
namespace where a caller looks them up, so no probe lives in ``src/``:
functions are replaced in each ``contractlab`` module that holds them (they
are imported by name, e.g. ``is_pne`` into ``solvers``, ``transforms`` and
``cli``; ``solve_lp`` is looked up lazily from ``solvers``), and methods on
their classes (``Instance.cost``, ``ProductDistribution.to_joint`` and
``value`` on every reward class).

Each call made inside a query is a span (name, start, end, parent, query id).
Calls and self time (span time minus the time of its child spans) are
aggregated for every layer. Span records are kept in memory for the first
round only and written out when the run ends; the three leaf layers called
hundreds of thousands of times per round (``core.cost``,
``core.agent_utility``, ``rewards.value``) are counted and timed but not
stored as spans.
"""
from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter

LEAVES = frozenset({"core.cost", "core.agent_utility", "rewards.value"})


class Layer:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def add(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def high(self, key, value):
        self.extra[key] = max(self.extra.get(key, 0), value)


class Recorder:
    def __init__(self):
        self.layers = {}
        self.query = None        # id of the running query; None outside queries
        self.first_round = True  # spans and distinct profiles: first round only
        self.spans = []
        self.distinct = set()    # (reward id, profile) pairs seen by value()
        self._alive = {}         # keeps those rewards alive so ids stay unique
        self._stack = []         # per open span: [span index, child seconds]

    def layer(self, name) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    def wrap(self, name, fn, measure=None):
        layer = self.layer(name)
        keep = name not in LEAVES
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            index = -1
            if keep and self.first_round:
                index = len(spans)
                # the innermost open span is the parent: leaves call no
                # recorded layer, so it is never a leaf
                spans.append((name, stack[-1][0] if stack else -1))
            frame = [index, 0.0]
            stack.append(frame)
            result = None
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                stack.pop()
                layer.calls += 1
                layer.self_s += end - start - frame[1]
                if index >= 0:
                    spans[index] += (start, end, self.query)
                if done and measure is not None:
                    measure(self, layer, args, result)
                # the parent's self time excludes this span and its measure
                if stack:
                    stack[-1][1] += perf_counter() - start
            return result

        return traced

    def counts(self) -> dict:
        """Every count recorded so far, keyed by metric name."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            for key, value in layer.extra.items():
                out[f"{name}.{key}"] = value
        out["rewards.value.distinct"] = len(self.distinct)
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, parent, start, end, query in self.spans:
                fh.write(json.dumps([name, start, end, parent, query]) + "\n")


# ---------------------------------------------------------------------------
# what is traced in contractlab

def _value(rec, layer, args, result):
    if rec.first_round:
        reward, S = args[0], args[1]
        rec.distinct.add((id(reward), S))
        rec._alive[id(reward)] = reward


def _to_joint(rec, layer, args, result):
    layer.add("profiles", len(result.support))


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _solve_lp(rec, layer, args, result):
    lp = args[0]
    rows, cols = len(lp.rows), len(lp.objective)
    layer.add("rows", rows)
    layer.add("cols", cols)
    # the dense tableau holds one column per variable, one slack per
    # inequality, one artificial per row that is not "<=" once its rhs is
    # made nonnegative, and the rhs; plus the objective row
    slack = sum(1 for _, rel, _ in lp.rows if rel != "=")
    art = sum(1 for _, rel, rhs in lp.rows
              if (rel if rhs >= 0 else {"<=": ">=", ">=": "<=", "=": "="}[rel])
              != "<=")
    layer.high("max_cells", (rows + 1) * (cols + slack + art + 1))
    if result.status == "optimal":
        layer.high("max_bits", max(_bits(v) for v in result.x + (result.value,)))


def _grid(rec, layer, args, result):
    layer.add("cells", len(result.cells))


# span name -> (home module, function names, measure)
FUNCTIONS = {
    "core.agent_utility": ("core", ["agent_utility"], None),
    "rewards.demand": ("rewards", ["demand"], None),
    "rewards.classify": ("rewards", ["classify"], None),
    "equilibria.is_pne": ("equilibria", ["is_pne"], None),
    "equilibria.is_cce": ("equilibria", ["is_cce"], None),
    "equilibria.is_ce": ("equilibria", ["is_ce"], None),
    "equilibria.is_mne": ("equilibria", ["is_mne"], None),
    "equilibria.is_dropout_stable": ("equilibria", ["is_dropout_stable"], None),
    "equilibria.potential_maximizer_pne":
        ("equilibria", ["potential_maximizer_pne"], None),
    "equilibria.best_response_dynamics":
        ("equilibria", ["best_response_dynamics"], None),
    "solvers.solve_lp": ("solvers", ["solve_lp"], _solve_lp),
    "solvers.lp_rows": ("solvers", ["best_cce", "worst_cce", "best_ce"], None),
    "solvers.grid_search": ("solvers", ["grid_search"], _grid),
    "solvers.enumerate_pne": ("solvers", ["enumerate_pne"], None),
    "solvers.best_pne_binary": ("solvers", ["best_pne_binary"], None),
    "fixtures.sample": ("fixtures",
                        ["sample_cce", "sample_ce", "sample_dropout_stable"], None),
    "transforms.lift": ("transforms", ["lift_xos", "lift_subadditive"], None),
    "transforms.scale": ("transforms", ["scale_for_existence",
                                        "scale_for_existence_subadditive",
                                        "scaled_contract"], None),
    "transforms.robustify": ("transforms",
                             ["robustify_submodular", "robustify_case"], None),
    "transforms.supermodular": ("transforms", ["cce_to_pne_supermodular_binary",
                                               "ce_to_pne_supermodular"], None),
    "cli.main": ("cli", ["main"], None),
}

# span name -> (home module, class name, method name, measure)
METHODS = {
    "core.cost": ("core", "Instance", "cost", None),
    "equilibria.to_joint": ("equilibria", "ProductDistribution", "to_joint",
                            _to_joint),
}


def install(rec: Recorder, modules: dict) -> None:
    """Wrap contractlab in place; ``modules`` maps short names (and
    ``"package"``) to the imported module objects."""
    for name, (home, attrs, measure) in FUNCTIONS.items():
        for attr in attrs:
            fn = getattr(modules[home], attr)
            traced = rec.wrap(name, fn, measure)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)
    for name, (home, cls_name, attr, measure) in METHODS.items():
        cls = getattr(modules[home], cls_name)
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), measure))
    rewards = modules["rewards"]
    for obj in list(vars(rewards).values()):
        if (isinstance(obj, type) and issubclass(obj, rewards.RewardFunction)
                and "value" in vars(obj) and obj is not rewards.RewardFunction):
            obj.value = rec.wrap("rewards.value", obj.value, _value)

"""contractlab benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload {lp-equilibria,pne-search,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory. Set-up (import, instance generation and
input preparation) is repeated at least five times and for at least a
second, and its median reported. Then rounds of queries run, each query
after the previous one returns, until about ``--seconds`` have passed; only
whole rounds run. Every time is scaled to a reference host speed (see
``HostSpeed``). Round r is built from (seed, r) with the same make-up in
every round, so a longer run covers more inputs; its queries run in an order
shuffled from (seed, r), so that the short queries are spread over the whole
run and not timed in a few bursts; its outputs are checked against
``checker`` after it, outside the timed queries.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
contractlab is wrapped by ``recorder`` and the per-layer metrics are
reported instead, per round: counts from the first round (round 0), self
times as the mean over all rounds, scaled by the run's median host speed.
Spans of the first round are written to ``perfbench/traces/``. The last line
of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 5, 1.0, 25
# the reference loop's time on the reference host; see HostSpeed
REF_NOMINAL_S, REF_REPEATS, REF_EVERY_S = 200e-6, 5, 0.1
MODULES = ("core", "rewards", "equilibria", "solvers", "transforms",
           "fixtures", "cli")

# per-layer metrics: (name, unit); counts are per round, self_s seconds per round
PER_LAYER = (
    [(f"{layer}.{key}", "s" if key == "self_s" else "count") for layer, keys in (
        ("core.cost", ("calls", "self_s")),
        ("core.agent_utility", ("calls", "self_s")),
        ("rewards.value", ("calls", "distinct", "self_s")),
        ("rewards.demand", ("calls", "self_s")),
        ("rewards.classify", ("calls", "self_s")),
        ("equilibria.is_pne", ("calls", "self_s")),
        ("equilibria.is_cce", ("self_s",)),
        ("equilibria.is_ce", ("self_s",)),
        ("equilibria.is_mne", ("self_s",)),
        ("equilibria.is_dropout_stable", ("self_s",)),
        ("equilibria.potential_maximizer_pne", ("self_s",)),
        ("equilibria.best_response_dynamics", ("self_s",)),
        ("equilibria.to_joint", ("profiles", "self_s")),
        ("solvers.solve_lp", ("calls", "self_s", "rows", "cols", "max_cells")),
        ("solvers.lp_rows", ("self_s",)),
        ("fixtures.sample", ("calls", "self_s")),
        ("solvers.grid_search", ("cells", "self_s")),
        ("solvers.enumerate_pne", ("calls", "self_s")),
        ("solvers.best_pne_binary", ("self_s",)),
        ("transforms.lift", ("self_s",)),
        ("transforms.scale", ("self_s",)),
        ("transforms.robustify", ("self_s",)),
        ("transforms.supermodular", ("self_s",)),
        ("cli.main", ("calls", "self_s")),
    ) for key in keys]
    + [("solvers.solve_lp.max_bits", "bits"), ("traced.queries_per_s", "1/s")]
)


def load_library() -> dict:
    """Import contractlab afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "contractlab"]:
        del sys.modules[name]
    modules = {"package": importlib.import_module("contractlab")}
    for short in MODULES:
        modules[short] = importlib.import_module(f"contractlab.{short}")
    return modules


def reference_loop() -> Fraction:
    """Fixed pure-Python Fraction work, of the kind contractlab does."""
    x = Fraction(0)
    for i in range(1, 40):
        x += Fraction(1, i) * Fraction(i, i + 1)
    return x


class HostSpeed:
    """The host's speed, sampled as the time of ``reference_loop``.

    The benchmark shares a host whose speed drifts by up to 2x over tens of
    seconds, so the same query's wall time moves with the neighbours' load.
    Every timed interval is divided by the reference loop's time sampled just
    before and just after it (their mean) and multiplied by
    ``REF_NOMINAL_S``: metrics read as times on a host where the loop takes
    ``REF_NOMINAL_S``. A change to contractlab moves the query and not the
    loop, so it shows in full; drift moves both and cancels.
    """

    def __init__(self):
        self.at, self.cost = [], []  # sample end times and loop times

    def sample(self) -> None:
        times = []
        for _ in range(REF_REPEATS):
            start = perf_counter()
            reference_loop()
            times.append(perf_counter() - start)
        self.cost.append(statistics.median(times))
        self.at.append(perf_counter())

    def sample_if_due(self) -> None:
        if perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def scaled(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds from ``start`` in reference seconds; needs a
        sample before ``start`` and one after its end."""
        after = bisect.bisect_left(self.at, start + elapsed)
        before = bisect.bisect_right(self.at, start) - 1
        return elapsed * 2 * REF_NOMINAL_S / (self.cost[before] + self.cost[after])

    def median_factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.cost)


def run_order(seed: int, round_no: int, size: int) -> list:
    """The order round ``round_no`` runs its queries in. A round is built
    kind by kind, so in build order its short queries would sit together and
    catch the host in one state; shuffled, they sample the whole run."""
    order = list(range(size))
    random.Random(f"order/{seed}/{round_no}").shuffle(order)
    return order


def run_round(queries, order, host, recorder=None) -> dict:
    """Run every query once, in ``order``, each after the previous one
    returns, sampling the host's speed between queries. Outputs come back in
    build order, where the checks expect them. Latencies are in reference
    seconds."""
    timed, outputs = [], [None] * len(queries)
    failed = 0
    for qid in order:
        q = queries[qid]
        host.sample_if_due()
        if recorder is not None:
            recorder.query = qid
        error = None
        start = perf_counter()
        try:
            out = q.call()
        except Exception as exc:  # a failed query is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if recorder is not None:
            recorder.query = None
        if error is None:
            timed.append((start, elapsed))
        else:
            failed += 1
        outputs[qid] = (out, error)
    host.sample()
    latencies = [host.scaled(start, elapsed) for start, elapsed in timed]
    return {"latencies": latencies, "outputs": outputs, "failed": failed}


def check_round(queries, outputs, problems) -> None:
    for q, (out, error) in zip(queries, outputs):
        if error is not None:
            if not q.known_failure:
                problems.append(f"{q.name} raised {error}")
            continue
        try:
            q.check(out)
        except Exception as exc:  # a malformed output fails its check too
            problems.append(f"{q.name}: {type(exc).__name__}: {exc}")


def measure(build, lib, seed, queries, seconds, host, recorder=None) -> dict:
    """Rounds 0, 1, 2, ... until about ``seconds`` of wall time have passed.

    Round r's inputs are built from (seed, r) before it runs and its outputs
    are checked after it, both outside the timed queries.
    """
    latencies, problems = [], []
    attempted = failed = 0
    counts = None
    rounds = 0
    t0 = perf_counter()
    while True:
        res = run_round(queries, run_order(seed, rounds, len(queries)), host,
                        recorder)
        latencies += res["latencies"]
        attempted += len(queries)
        failed += res["failed"]
        check_round(queries, res["outputs"], problems)
        rounds += 1
        if recorder is not None and rounds == 1:
            counts = recorder.counts()
            recorder.first_round = False
        elapsed = perf_counter() - t0
        # stop where the expected end of the next round lies past the budget
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
        queries = build(lib, seed, rounds)
    return {"latencies": latencies, "problems": problems, "attempted": attempted,
            "failed": failed, "rounds": rounds, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contractlab" / "__init__.py").is_file():
        print(f"error: no contractlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    host = HostSpeed()
    setups = []
    while not setups or not args.trace and (
            len(setups) < SETUP_MIN_REPEATS
            or sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        gc.collect()
        host.sample()
        start = perf_counter()
        lib = SimpleNamespace(**load_library())
        queries = build(lib, args.seed, 0)
        elapsed = perf_counter() - start
        host.sample()
        setups.append(host.scaled(start, elapsed))

    recorder = None
    if args.trace:
        import recorder as rec_mod
        recorder = rec_mod.Recorder()
        rec_mod.install(recorder, vars(lib))
    gc.collect()
    res = measure(build, lib, args.seed, queries, args.seconds, host, recorder)
    for line in res["problems"]:
        print(f"MISMATCH {line}", file=sys.stderr)

    lat = res["latencies"]
    qps = len(lat) / sum(lat)
    if recorder is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "queries_per_s": (qps, "1/s"),
            "query_p50_ms": (1000 * statistics.median(lat), "ms"),
            "query_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        per_round = dict(res["counts"])
        for name, layer in recorder.layers.items():
            per_round[f"{name}.self_s"] = (layer.self_s / res["rounds"]
                                           * host.median_factor())
        per_round["traced.queries_per_s"] = qps
        metrics = {name: (per_round.get(name, 0), unit) for name, unit in PER_LAYER}
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        recorder.write_spans(out_dir / f"{args.workload}-seed{args.seed}.jsonl.gz")

    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} queries, {res['failed']} failed; reference "
          f"loop median {statistics.median(host.cost) * 1e6:.0f} us "
          f"(reference host {REF_NOMINAL_S * 1e6:.0f} us)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``tools/bench_pairs.py`` summarizes paired benchmark runs: quartiles per
side, the change's wins and a gain / refused / worse / flat verdict.
perfbench itself is never run here: ``run_once`` is replaced by a stub."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
LOWER = {"name": "setup_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "queries_per_s", "better": "higher", "bound": 0.25}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(name, parent, change):
    return [{"parent": {name: p}, "change": {name: c}}
            for p, c in zip(parent, change)]


def test_quartiles(tool):
    assert tool.quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)
    assert tool.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    assert tool.quartiles([7]) == (7, 7, 7)


def test_nine_wins_and_a_median_gap_past_the_parent_iqr_is_a_gain(tool):
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [5, 6, 7, 8, 9, 10, 11, 12, 13, 20]   # loses the last pair
    row = tool.summarize(pairs_of("setup_s", parent, change), [LOWER])["setup_s"]
    assert row["parent"] == (12.25, 14.5, 16.75)
    assert row["change"] == (7.25, 9.5, 11.75)
    assert (row["wins"], row["pairs"], row["verdict"]) == (9, 10, "gain")


def test_eight_wins_are_no_gain(tool):
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [5, 6, 7, 8, 9, 10, 11, 12, 30, 30]
    row = tool.summarize(pairs_of("setup_s", parent, change), [LOWER])["setup_s"]
    assert (row["wins"], row["verdict"]) == (8, "flat")


def test_every_win_inside_the_parent_iqr_is_no_gain(tool):
    parent = [10, 14, 18, 22, 26]
    change = [9, 13, 17, 21, 25]    # wins 5/5, median 1 below, IQR 8
    row = tool.summarize(pairs_of("setup_s", parent, change), [LOWER])["setup_s"]
    assert (row["wins"], row["verdict"]) == (5, "flat")


def test_ties_count_for_neither_side(tool):
    parent = [100, 100, 100, 100]
    change = [100, 100, 100, 90]
    row = tool.summarize(pairs_of("queries_per_s", parent, change),
                         [HIGHER])["queries_per_s"]
    assert (row["wins"], row["verdict"]) == (0, "flat")


def test_higher_is_better_reads_the_other_way(tool):
    parent = [100, 101, 102, 103]
    change = [120, 121, 122, 123]
    row = tool.summarize(pairs_of("queries_per_s", parent, change),
                         [HIGHER])["queries_per_s"]
    assert (row["wins"], row["verdict"]) == (4, "gain")


def test_worse_than_the_bound_of_the_parent_median(tool):
    parent = [100, 100, 100, 100]
    assert tool.summarize(pairs_of("queries_per_s", parent, [74] * 4),
                          [HIGHER])["queries_per_s"]["verdict"] == "worse"
    assert tool.summarize(pairs_of("queries_per_s", parent, [76] * 4),
                          [HIGHER])["queries_per_s"]["verdict"] == "flat"
    assert tool.summarize(pairs_of("setup_s", parent, [126] * 4),
                          [LOWER])["setup_s"]["verdict"] == "worse"


def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    return [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
            "pne-search", "--seed", "811", "--seconds", "1"]


def stub_runs(tool, monkeypatch, correct=True, failed=0, exits_at=None):
    """``run_once`` replaced: the change reads half the parent's value on
    every metric, so every lower-is-better metric would be a gain; the
    change's run reads ``correct`` and ``failed``, and the ``exits_at``-th
    call (counted from 0) exits 3."""
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        if len(calls) - 1 == exits_at:
            raise subprocess.CalledProcessError(
                3, ["run.py"], output="", stderr="Traceback ...\nMemoryError\n")
        change = checkout.name == "change"
        return {"correct": correct or not change, "attempted": 10,
                "failed": failed if change else 0,
                "metrics": {m["name"]: {"value": 0.5 if change else 1.0, "unit": "s"}
                            for m in tool.end_to_end()}}
    monkeypatch.setattr(tool, "run_once", fake_run)
    return calls


def test_main_alternates_the_first_side_and_appends_its_record(tool, tmp_path,
                                                               monkeypatch, capsys):
    calls = stub_runs(tool, monkeypatch)
    out = tmp_path / "bench.json"
    out.write_text("[]")
    argv = checkouts(tmp_path) + ["--pairs", "3", "--out", str(out)]
    assert tool.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert "setup_s: parent 1 [1, 1] -> change 0.5 [0.5, 0.5], change won 3/3: gain" \
        in capsys.readouterr().out
    assert tool.main(argv) == 0
    records = json.loads(out.read_text())
    assert len(records) == 2
    assert [pair["first"] for pair in records[0]["pairs"]] == ["parent", "change",
                                                               "parent"]
    assert records[0]["summary"]["setup_s"]["verdict"] == "gain"
    assert "exited_nonzero" not in records[0]


def test_a_would_be_gain_is_refused_when_told_so(tool):
    parent = [100, 101, 102, 103]
    gain = tool.summarize(pairs_of("queries_per_s", parent, [120, 121, 122, 123]),
                          [HIGHER], refuse=True)["queries_per_s"]
    assert (gain["wins"], gain["verdict"]) == (4, "refused")
    worse = tool.summarize(pairs_of("queries_per_s", parent, [70] * 4),
                           [HIGHER], refuse=True)["queries_per_s"]
    assert worse["verdict"] == "worse"


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 1)])
def test_main_refuses_a_gain_of_an_incorrect_or_failing_change(
        tool, tmp_path, monkeypatch, capsys, correct, failed):
    stub_runs(tool, monkeypatch, correct=correct, failed=failed)
    out = tmp_path / "bench.json"
    assert tool.main(checkouts(tmp_path) + ["--pairs", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "setup_s: parent 1 [1, 1] -> change 0.5 [0.5, 0.5], change won 2/2: " \
        "refused" in printed
    assert ": gain" not in printed
    summary = json.loads(out.read_text())[0]["summary"]
    assert summary["setup_s"]["verdict"] == "refused"


def test_main_names_a_run_that_exits_nonzero_and_keeps_finished_pairs(
        tool, tmp_path, monkeypatch, capsys):
    calls = stub_runs(tool, monkeypatch, exits_at=3)  # pair 1, its parent run
    out = tmp_path / "bench.json"
    assert tool.main(checkouts(tmp_path) + ["--pairs", "3", "--out", str(out)]) == 1
    assert calls == ["parent", "change", "change", "parent"]
    printed = capsys.readouterr()
    assert "error: pair 1 parent: perfbench/run.py exited 3" in printed.err
    assert "MemoryError" in printed.err
    assert "1 pairs of 1 s runs" in printed.out
    record = json.loads(out.read_text())[0]
    assert len(record["pairs"]) == 1 and record["exited_nonzero"] == "pair 1 parent"
    assert record["summary"]["setup_s"]["pairs"] == 1
    # a run failing in the first pair leaves nothing to summarize
    stub_runs(tool, monkeypatch, exits_at=0)
    assert tool.main(checkouts(tmp_path / "again") + ["--pairs", "3", "--out",
                                                      str(out)]) == 1
    record = json.loads(out.read_text())[1]
    assert (record["pairs"], record["summary"]) == ([], {})
    assert record["exited_nonzero"] == "pair 0 parent"

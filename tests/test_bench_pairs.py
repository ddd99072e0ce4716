"""``tools/bench_pairs.py`` summarizes paired benchmark runs: quartiles per
side, the change's wins and a gain / worse / flat verdict. perfbench itself
is never run here: ``run_once`` is replaced by a stub."""
import importlib.util
import json
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


def test_main_alternates_the_first_side_and_appends_its_record(tool, tmp_path,
                                                               monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        value = 1.0 if checkout.name == "parent" else 0.5
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": value, "unit": "s"}
                            for m in tool.end_to_end()}}

    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    monkeypatch.setattr(tool, "run_once", fake_run)
    out = tmp_path / "bench.json"
    out.write_text("[]")
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
            "pne-search", "--seed", "811", "--pairs", "3", "--seconds", "1",
            "--out", str(out)]
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

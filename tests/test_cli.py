import hashlib
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from contractlab import cli, transforms
from contractlab.core import ONE, CapacityError, Contract, int_digit_limit, make_instance
from contractlab.fixtures import (
    random_instance,
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)
from contractlab.rewards import AdditiveReward, XosReward, classify


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(cli.canonical_json(doc))
    return str(path)


@pytest.fixture
def separation_path(tmp_path):
    return write(tmp_path, "sep.json",
                 cli.instance_to_json(separation_example()))


@pytest.fixture
def mne_path(tmp_path):
    doc = {"product": [
        [{"slice": [0], "prob": "9/10"}, {"slice": [], "prob": "1/10"}],
        [{"slice": [1], "prob": "9/10"}, {"slice": [], "prob": "1/10"}],
    ]}
    return write(tmp_path, "mne.json", doc)


def test_instance_round_trip(tmp_path):
    for inst in (separation_example(), supermodular_cce_gap_instance(),
                 subadditive_gap_instance(1)):
        doc = cli.instance_to_json(inst)
        text = cli.canonical_json(doc)
        back = cli.instance_from_json(json.loads(text))
        assert back.costs == inst.costs and back.owners == inst.owners
        assert all(back.reward.value(S) == inst.reward.value(S)
                   for S in range(1 << inst.m))
        assert cli.canonical_json(cli.instance_to_json(back)) == text


def test_distribution_round_trip():
    inst = separation_example()
    doc = {"support": [{"profile": [0, 1], "prob": "3/4"},
                       {"profile": [], "prob": "1/4"}]}
    D, product = cli.distribution_from_json(doc, inst)
    assert product is None
    assert cli.canonical_json(cli.distribution_to_json(D)) == \
        cli.canonical_json({"support": [{"profile": [], "prob": "1/4"},
                                        {"profile": [0, 1], "prob": "3/4"}]})


def test_parse_errors():
    with pytest.raises(cli.InputError):
        cli.parse_scalar("one third")
    with pytest.raises(cli.InputError):
        cli.parse_contract("1/2", 2)
    with pytest.raises(cli.InputError):
        cli.parse_profile("9", separation_example())
    with pytest.raises(cli.InputError):
        cli.distribution_from_json({}, separation_example())
    with pytest.raises(cli.InputError):
        cli.instance_from_json({"agents": []})


def test_verify_pass_and_fail(separation_path, mne_path, tmp_path, capsys):
    assert cli.main(["verify", separation_path, "--contract", "1/36,1/36",
                     "--distribution", mne_path, "--concept", "mne"]) == 0
    assert "holds" in capsys.readouterr().out

    point = write(tmp_path, "point.json",
                  {"support": [{"profile": [0, 1], "prob": "1"}]})
    assert cli.main(["verify", separation_path, "--contract", "1/36,1/36",
                     "--distribution", point, "--concept", "pne"]) == 1
    out = capsys.readouterr().out
    assert "violated by agent 0" in out

    assert cli.main(["verify", separation_path, "--contract", "1/20,1/20",
                     "--distribution", point, "--concept", "pne"]) == 0


def test_verify_usage_errors(separation_path, mne_path, capsys):
    # mne concept needs product form; a joint support document is an error
    assert cli.main(["verify", separation_path, "--contract", "bad",
                     "--distribution", mne_path, "--concept", "pne"]) == 2
    assert cli.main(["verify", separation_path, "--contract", "1/36,1/36",
                     "--distribution", "/nonexistent.json",
                     "--concept", "cce"]) == 2
    capsys.readouterr()


def test_lift_command(separation_path, mne_path, tmp_path, capsys):
    out_path = tmp_path / "lift.json"
    code = cli.main(["lift", separation_path, "--contract", "1/36,1/36",
                     "--distribution", mne_path, "--mode", "xos",
                     "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "case: C" in out
    assert "contract: (7/216, 0)" in out
    assert "pne: {0}" in out
    assert "achieved ratio: 5225/5508" in out
    doc = json.loads(out_path.read_text())
    assert doc["case"] == "C" and doc["pne"] == [0]
    assert doc["contract"] == ["7/216", "0"]


def test_lift_subadditive_case_b_without_a_second_agent(tmp_path, capsys):
    """One agent at 4/5 whose own reward fails Case A: the subadditive lift
    exits 2 naming what Case B lacks, the XOS lift answers."""
    inst = write(tmp_path, "one.json", {"agents": [
        {"id": 0, "actions": [{"id": 0, "cost": "0"}]}],
        "reward": {"type": "table", "values": ["1", "2"]}})
    dist = write(tmp_path, "d.json", {"support": [{"profile": [0], "prob": "1"}]})
    args = ["lift", inst, "--contract", "4/5", "--distribution", dist, "--mode"]
    assert cli.main(args + ["subadditive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Case B needs an agent other than the top one, "
                            "agent 0\n")
    assert cli.main(args + ["xos"]) == 0
    assert "case: B" in capsys.readouterr().out


def test_robustify_command(separation_path, capsys):
    code = cli.main(["robustify", separation_path, "--contract", "1/20,1/20",
                     "--profile", "0,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "case: D" in out
    assert "contract: (7/120, 0)" in out
    assert "worst-cce utility: 339/2" in out
    assert "achieved ratio: 113/120" in out
    assert "ratio >= 1/224: yes" in out


def test_gap_report_command(separation_path, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code = cli.main(["gap-report", separation_path, "--resolution", "36",
                     "--concepts", "best_pne", "best_cce",
                     "--cells", "1/20,1/20;1/36,1/36",
                     "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "best 180" in out
    assert "best 2040/11" in out
    assert "best_cce" in out and "/ best_pne ratio: 34/33" in out
    doc = json.loads(json_path.read_text())
    assert doc["concepts"]["best_pne"]["best_value"] == "180"
    assert doc["concepts"]["best_cce"]["best_value"] == "2040/11"


def test_lp_commands_on_an_agent_without_actions(tmp_path, capsys):
    doc = {"agents": [{"actions": [{"cost": "1", "id": 0}], "id": 0},
                      {"actions": [], "id": 1}],
           "reward": {"type": "additive", "values": ["3"]}}
    path = write(tmp_path, "idle.json", doc)
    assert cli.main(["gap-report", path, "--resolution", "4",
                     "--concepts", "best_pne", "best_cce"]) == 0
    assert "best_cce / best_pne ratio: 1" in capsys.readouterr().out
    assert cli.main(["robustify", path, "--contract", "1/2,0", "--profile", "0"]) == 0
    # agent 0 acts under 7/12 of 3, so the principal keeps 5/12 of it
    assert "worst-cce utility: 5/4" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["lift", "--contract", "1/36,1/36", "--mode", "xos", "--out"],
    ["gap-report", "--resolution", "2", "--concepts", "best_pne", "--json"],
])
def test_unwritable_output_is_a_usage_error(command, separation_path, mne_path,
                                            tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    argv = [command[0], separation_path, *command[1:], missing]
    if command[0] == "lift":
        argv += ["--distribution", mne_path]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]] and err[0].startswith(f"error: cannot write {missing}")


def test_classify_command(separation_path, capsys):
    assert cli.main(["classify", separation_path]) == 0
    out = capsys.readouterr().out
    assert "submodular: yes" in out
    assert "supermodular: no" in out


def test_gen_round_trip(tmp_path, capsys):
    assert cli.main(["gen", "subadditive-gap", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = cli.instance_from_json(doc)
    target = subadditive_gap_instance(1)
    assert all(inst.reward.value(S) == target.reward.value(S)
               for S in range(1 << inst.m))

    assert cli.main(["gen", "random", "--kind", "coverage", "--seed", "7",
                     "--n", "2", "--actions", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cli.instance_from_json(doc).n == 2

    assert cli.main(["gen", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n, digest", [
    ("1", "21b41c0fedff0fa8e8a8edbe392ebe920ed79da04d996eddc258696840388f78"),
    ("4", "972df94adc5e400c1e8d540115bab7ba5df86d345d003c58b05a217ab5c07ee4"),
])
def test_gen_subadditive_gap_bytes(n, digest, capsys):
    """The gap family's table, pinned by sha256 from before its reward
    became a count reward."""
    assert cli.main(["gen", "subadditive-gap", "--n", n]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_gen_capacity(capsys):
    # the subadditive family at n = 16 has 34 actions, past the 16 up to
    # which a formula reward is written out: refused before it is built
    assert cli.main(["gen", "subadditive-gap", "--n", "16"]) == 2
    assert "error: --n 16 gives more than 16 actions" in capsys.readouterr().err


# stdout of each claim, pinned byte for byte; P61-golden-mne-positive prints
# a 400-digit utility, so its stdout is pinned by sha256
REPRODUCE_STDOUT = {
    "A1-pne-180": (
        "best pure-equilibrium utility: expected 180, computed 180 [ok]\n"
        "inducing profile: expected {0,1}, computed {0,1} [ok]\n"
    ),
    "A1-mne-183.6": (
        "mixed equilibrium verifies: expected True, computed True [ok]\n"
        "principal utility: expected 918/5, computed 918/5 [ok]\n"
    ),
    "P54-cce-7/45": (
        "distribution verifies as cce: expected True, computed True [ok]\n"
        "principal utility: expected 7/45, computed 7/45 [ok]\n"
    ),
    "P54-pne-nonpositive": (
        "best pure-equilibrium utility over all contracts: expected 0,"
        " computed 0 [ok]\n"
    ),
    "P61-golden-pne-zero": (
        "max inducible utility: expected within 1e-18 of 0, computed 0 [ok]\n"
    ),
    "C2-small-n-pne": (
        "best pure-equilibrium utility (n=1): expected <= 13/2,"
        " computed 5 [ok]\n"
    ),
    "C3-mne-valid": (
        "n=4 mixed equilibrium verifies: expected True, computed True [ok]\n"
        "n=4 principal utility: expected 37/36, computed 37/36 [ok]\n"
        "n=9 mixed equilibrium verifies: expected True, computed True [ok]\n"
        "n=9 principal utility: expected 137/108, computed 137/108 [ok]\n"
        "n=25 mixed equilibrium verifies: expected True, computed True [ok]\n"
        "n=25 principal utility: expected 311/180, computed 311/180 [ok]\n"
    ),
    "T51-binary-construction": (
        "trial 0 construction utility: expected >= cce utility,"
        " computed 3 [ok]\n"
        "trial 1 construction utility: expected >= cce utility,"
        " computed 27/4 [ok]\n"
        "trial 2 construction utility: expected >= cce utility,"
        " computed 15/2 [ok]\n"
        "trial 3 construction utility: expected >= cce utility,"
        " computed 0 [ok]\n"
        "trial 4 construction utility: expected >= cce utility,"
        " computed 1 [ok]\n"
    ),
    "T52-ce-construction": (
        "trial 0 dynamics utility: expected >= ce utility, computed 0 [ok]\n"
        "trial 1 dynamics utility: expected >= ce utility, computed 0 [ok]\n"
        "trial 2 dynamics utility: expected >= ce utility, computed 4/3 [ok]\n"
        "trial 3 dynamics utility: expected >= ce utility,"
        " computed 15/2 [ok]\n"
        "trial 4 dynamics utility: expected >= ce utility,"
        " computed 25/3 [ok]\n"
    ),
    "L32-property": (
        "trial 0 scaled reward bound: expected >= 0, computed 0 [ok]\n"
        "trial 1 scaled reward bound: expected >= 4, computed 15 [ok]\n"
        "trial 2 scaled reward bound: expected >= 9/2, computed 10 [ok]\n"
        "trial 3 scaled reward bound: expected >= 0, computed 17 [ok]\n"
        "trial 4 scaled reward bound: expected >= 4, computed 19 [ok]\n"
        "trial 5 scaled reward bound: expected >= 9/2, computed 19 [ok]\n"
        "trial 6 scaled reward bound: expected >= 11/2, computed 7 [ok]\n"
        "trial 7 scaled reward bound: expected >= 5/2, computed 5 [ok]\n"
        "trial 8 scaled reward bound: expected >= 4, computed 17 [ok]\n"
        "trial 9 scaled reward bound: expected >= 6, computed 12 [ok]\n"
    ),
    "L36-property": (
        "trial 0 worst-cce reward: expected >= 9/4, computed 9 [ok]\n"
        "trial 1 worst-cce reward: expected >= 15/4, computed 15 [ok]\n"
        "trial 2 worst-cce reward: expected >= 0, computed 9 [ok]\n"
        "trial 3 worst-cce reward: expected >= 1/4, computed 1 [ok]\n"
        "trial 4 worst-cce reward: expected >= 0, computed 3 [ok]\n"
        "trial 5 worst-cce reward: expected >= 0, computed 12 [ok]\n"
        "trial 6 worst-cce reward: expected >= 0, computed 9 [ok]\n"
        "trial 7 worst-cce reward: expected >= 7/4, computed 258/25 [ok]\n"
        "trial 8 worst-cce reward: expected >= 0, computed 8 [ok]\n"
        "trial 9 worst-cce reward: expected >= 0, computed 8 [ok]\n"
    ),
}
P61_MNE_STDOUT_SHA256 = \
    "df8137c47414e2176bc602dae2d6aaafac763c486f3943870929d0ad8a39b746"


def test_reproduce_every_claim(capsys):
    for claim in sorted(cli.REPRODUCE):
        assert cli.main(["reproduce", claim]) == 0, claim
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        if claim == "P61-golden-mne-positive":
            assert hashlib.sha256(out.encode()).hexdigest() == \
                P61_MNE_STDOUT_SHA256
        else:
            assert out == REPRODUCE_STDOUT[claim], claim
    assert cli.main(["reproduce", "no-such-claim"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--help"], *([command, "--help"] for command in (
        "verify", "lift", "robustify", "reproduce", "gap-report", "classify",
        "gen"))], ids=" ".join)
def test_help_formats(argv, capsys):
    """argparse formats a help text only when asked, so a stray % in one
    shows only here."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip()


def test_reproduce_prints_every_record_on_mismatch(monkeypatch, capsys):
    # the point mass on every action is no CCE at the fixture's contract:
    # agent 0 gains by dropping one of its two actions
    a, _ = cli.fixtures.supermodular_gap_cce()
    D = cli.JointDistribution(((7, ONE),))
    monkeypatch.setattr(cli.fixtures, "supermodular_gap_cce", lambda: (a, D))
    assert cli.main(["reproduce", "P54-cce-7/45"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("distribution verifies as cce: expected True, "
                        "computed False [MISMATCH]")
    assert len(lines) == 2 and lines[1].startswith("principal utility: ")


def test_readme_lists_every_claim():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    listed = re.search(r"Claims: (.*?)\.\s", section, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == set(cli.REPRODUCE)


def test_readme_claims_are_the_sorted_registry():
    # the order the CI step and the unknown-claim message list them in
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    paragraph = section.split("`contractlab reproduce <claim>`")[1].split("\n\n")[0]
    listed = re.search(r"Claims: (.*?)\.\s", paragraph, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == sorted(cli.REPRODUCE)


def test_reproduce_all_is_every_single_run(capsys):
    singles = []
    for claim in sorted(cli.REPRODUCE):
        assert cli.main(["reproduce", claim]) == 0, claim
        singles.append(capsys.readouterr().out)
    assert cli.main(["reproduce", "--all"]) == 0
    assert capsys.readouterr().out == "".join(singles)


def test_reproduce_all_runs_the_registry_and_readme_claims(monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    listed = re.findall(r"`([^`]+)`", re.search(r"Claims: (.*?)\.\s", section, re.S).group(1))
    ran = []
    for name, claim in list(cli.REPRODUCE.items()):
        monkeypatch.setitem(cli.REPRODUCE, name,
                            lambda name=name, claim=claim: ran.append(name) or claim())
    assert cli.main(["reproduce", "--all"]) == 0
    capsys.readouterr()
    assert ran == sorted(listed) == sorted(cli.REPRODUCE)


def test_reproduce_all_fails_on_any_mismatch_and_runs_the_rest(monkeypatch, capsys):
    assert cli.main(["reproduce", "--all"]) == 0
    passing = capsys.readouterr().out.splitlines()
    # as in test_reproduce_prints_every_record_on_mismatch: no CCE
    a, _ = cli.fixtures.supermodular_gap_cce()
    D = cli.JointDistribution(((7, ONE),))
    monkeypatch.setattr(cli.fixtures, "supermodular_gap_cce", lambda: (a, D))
    assert cli.main(["reproduce", "--all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(passing)
    assert [line for line in lines if "MISMATCH" in line] == [
        "distribution verifies as cce: expected True, computed False [MISMATCH]",
        "principal utility: expected 7/45, computed 7/36 [MISMATCH]"]
    assert lines[-1] == passing[-1]


@pytest.mark.parametrize("argv", [["reproduce"], ["reproduce", "--all", "A1-pne-180"]])
def test_reproduce_takes_one_claim_or_all(argv, capsys):
    assert cli.main(argv) == 2
    assert "error: reproduce takes one claim or --all" in capsys.readouterr().err


def test_reproduce_registry_complete():
    assert set(cli.REPRODUCE) == {
        "A1-pne-180", "A1-mne-183.6", "P54-cce-7/45", "P54-pne-nonpositive",
        "P61-golden-pne-zero", "P61-golden-mne-positive", "C2-small-n-pne",
        "C3-mne-valid", "T51-binary-construction", "T52-ce-construction",
        "L32-property", "L36-property",
    }


def exit_code(argv):
    """main's return code, or argparse's exit code for a rejected flag."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_robustify_negative_profile_id(separation_path, capsys):
    assert exit_code(["robustify", separation_path, "--contract", "1/20,1/20",
                      "--profile", "-1"]) == 2
    assert "error: bad profile" in capsys.readouterr().err


def test_robustify_non_pne_profile(separation_path, capsys):
    # under (1/36, 1/36) agent 0 gains by leaving {0, 1}
    assert exit_code(["robustify", separation_path, "--contract", "1/36,1/36",
                      "--profile", "0,1"]) == 2
    assert "error: input profile is not a PNE" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ["0", "-2"])
def test_gap_report_nonpositive_resolution(separation_path, capsys, resolution):
    assert exit_code(["gap-report", separation_path,
                      "--resolution", resolution]) == 2
    assert "error: argument --resolution" in capsys.readouterr().err


def test_gap_report_past_enumeration_cap(separation_path, monkeypatch, capsys):
    # 21 cells at resolution 5 on two agents need 5 bits
    monkeypatch.setenv("CONTRACTLAB_CAP", "4")
    assert exit_code(["gap-report", separation_path, "--resolution", "5"]) == 3
    assert "capacity: contract grid" in capsys.readouterr().err


def test_gen_random_without_agents(capsys):
    assert exit_code(["gen", "random", "--kind", "additive", "--n", "0"]) == 2
    assert "error: argument --n" in capsys.readouterr().err


def test_gen_subadditive_gap_non_square(capsys):
    assert exit_code(["gen", "subadditive-gap", "--n", "5"]) == 2
    assert "error: n must be a positive perfect square, got 5" in capsys.readouterr().err


def test_gen_golden_too_few_digits(capsys):
    assert exit_code(["gen", "golden", "--digits", "3"]) == 2
    assert "error: need at least 20 digits" in capsys.readouterr().err


def unbuilt(*_):
    """A fixture builder that must not be reached."""
    raise AssertionError("the instance was built before its size was checked")


@pytest.mark.parametrize("n", ["9", str(10 ** 12)])
def test_gen_subadditive_gap_refuses_untabulated_sizes_unbuilt(n, monkeypatch, capsys):
    # 2n + 2 actions, above the 16 up to which a formula reward is written out
    monkeypatch.setattr(cli.fixtures, "subadditive_gap_instance", unbuilt)
    assert exit_code(["gen", "subadditive-gap", "--n", n]) == 2
    assert f"error: --n {n} gives more than 16 actions" in capsys.readouterr().err


@pytest.mark.skipif(not int_digit_limit(), reason="this Python has no digit limit")
def test_gen_golden_refuses_digits_at_the_digit_limit_unbuilt(monkeypatch, capsys):
    # phi + 1 would have digits + 1 digits, more than str() writes
    monkeypatch.setattr(cli.fixtures, "golden_ratio_instance", unbuilt)
    for digits in (int_digit_limit(), 10 ** 5):
        assert exit_code(["gen", "golden", "--digits", str(digits)]) == 2
        assert f"error: --digits must be below {int_digit_limit()}" \
            in capsys.readouterr().err


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """Each line of the README's CLI block, run through ``main`` next to the
    distribution files the README shows, exits 0 or 1; a line's ``> file``
    writes what it printed to that file."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    block = re.search(r"```\n(contractlab .*?)```", section, re.S).group(1)
    files = re.findall(r"is `(\w+\.json)`:\n\n```json\n(.*?)```", section, re.S)
    assert sorted(name for name, _ in files) == ["cce.json", "mne.json"]
    monkeypatch.chdir(tmp_path)
    for name, doc in files:
        (tmp_path / name).write_text(doc)
    for line in filter(None, block.splitlines()):
        words = shlex.split(line)
        out = None
        if ">" in words:
            words, out = words[:words.index(">")], words[words.index(">") + 1]
        assert words[0] == "contractlab"
        assert exit_code(words[1:]) in (0, 1), (line, capsys.readouterr().err)
        printed = capsys.readouterr().out
        if out:
            (tmp_path / out).write_text(printed)


def test_gen_random_table_past_enumeration_cap(capsys):
    assert exit_code(["gen", "random", "--kind", "table", "--n", "30"]) == 3
    assert "capacity:" in capsys.readouterr().err


def test_malformed_cap_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CONTRACTLAB_CAP", "abc")
    assert exit_code(["gen", "random", "--kind", "table", "--n", "2"]) == 2
    assert "error: CONTRACTLAB_CAP='abc'" in capsys.readouterr().err


def test_failed_post_check_is_an_internal_error(separation_path, monkeypatch,
                                                capsys):
    def failing(inst, a):
        raise RuntimeError("equilibrium LP came back infeasible")
    monkeypatch.setattr(cli.solvers, "worst_cce", failing)
    assert exit_code(["robustify", separation_path, "--contract", "1/20,1/20",
                      "--profile", "0,1"]) == 4
    assert "internal error: equilibrium LP" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", [["--tolerance", "-1"],
                                       ["--tolerance=-1/1000000"]])
def test_negative_tolerance_is_a_usage_error(separation_path, mne_path, tolerance,
                                             capsys):
    assert exit_code(["verify", separation_path, "--contract", "1/36,1/36",
                      "--distribution", mne_path, "--concept", "mne",
                      *tolerance]) == 2
    assert "error: tolerance must be" in capsys.readouterr().err
    assert exit_code(["verify", separation_path, "--contract", "1/36,1/36",
                      "--distribution", mne_path, "--concept", "mne",
                      "--tolerance", "1/1000000"]) == 0


HUGE_ID = 2 ** 70


def huge_id_argv(place, tmp_path, separation_path):
    """A command whose outside id list in ``place`` holds HUGE_ID."""
    if place == "profile":
        return ["robustify", separation_path, "--contract", "1/20,1/20",
                "--profile", str(HUGE_ID)]
    if place == "cover":
        doc = cli.instance_to_json(random_instance("coverage", 7, 3, 2))
        doc["reward"]["covers"][0] = [HUGE_ID]
        return ["classify", write(tmp_path, "cov.json", doc)]
    dist = ({"support": [{"profile": [HUGE_ID], "prob": "1"}]}
            if place == "support" else
            {"product": [[{"slice": [HUGE_ID], "prob": "1"}],
                         [{"slice": [], "prob": "1"}]]})
    return ["verify", separation_path, "--contract", "1/20,1/20",
            "--distribution", write(tmp_path, "dist.json", dist),
            "--concept", "cce" if place == "support" else "mne"]


@pytest.mark.parametrize("place", ["profile", "support", "slice", "cover"])
def test_huge_action_id_is_a_usage_error(place, tmp_path, separation_path,
                                         capsys):
    assert exit_code(huge_id_argv(place, tmp_path, separation_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad ")
    assert f"id {HUGE_ID} is not an integer in [0, " in err[0]


def verify_argv(separation_path, mne_path, share="1/36", tolerance="1/1000000"):
    return ["verify", separation_path, "--contract", f"{share},1/36",
            "--distribution", mne_path, "--concept", "mne",
            "--tolerance", tolerance]


@pytest.mark.parametrize("value", ["1e5000", "1E-5000", "1e999999999"])
@pytest.mark.parametrize("place", ["share", "cost", "tolerance"])
def test_exponent_past_the_digit_limit_is_a_usage_error(
        place, value, separation_path, mne_path, tmp_path, capsys):
    """Fraction would build 10**exp for these; the check refuses them first."""
    if place == "cost":
        doc = cli.instance_to_json(separation_example())
        doc["agents"][0]["actions"][0]["cost"] = value
        argv = verify_argv(write(tmp_path, "big.json", doc), mne_path)
    else:
        argv = verify_argv(separation_path, mne_path, **{place: value})
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad rational")
    assert "integer-digit limit 4300" in err[0]


def test_exponents_within_the_digit_limit_parse(separation_path, mne_path, capsys):
    assert cli.parse_scalar("1e3") == 1000
    assert cli.parse_scalar("2.5E-2") == Fraction(1, 40)
    assert cli.parse_scalar("1e4300") == 10 ** 4300
    assert exit_code(verify_argv(separation_path, mne_path, share="2.5E-2",
                                 tolerance="1e3")) == 0
    assert "holds" in capsys.readouterr().out


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_calls_in_sequence_match_calls_alone(separation_path, capsys):
    calls = [["gap-report"],  # no instance: argparse's usage error
             ["gap-report", separation_path, "--resolution", "2",
              "--concepts", "worst_cce", "best_ce"],
             ["gap-report", separation_path, "--resolution", "2"],
             ["reproduce", "A1-pne-180"]]

    def run(argv):
        code = exit_code(argv)
        return code, capsys.readouterr().out

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _ in alone] == [2, 0, 0, 0]
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert [run(argv) for argv in reversed(calls)] == alone[::-1]


def test_deeply_nested_json_is_a_usage_error(separation_path, tmp_path, capsys):
    """The JSON decoder gives up on deep nesting with RecursionError, which is
    a RuntimeError; it is bad input, not a failed post-check."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    for argv in (["classify", str(deep)],
                 ["verify", separation_path, "--contract", "1/36,1/36",
                  "--distribution", str(deep), "--concept", "cce"]):
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {deep}: ")


@pytest.mark.parametrize("reward, m", [
    ({"type": "table", "values": "05"}, 1),
    ({"type": "table", "values": {"0": "0", "1": "5"}}, 1),
    ({"type": "additive", "values": "5"}, 1),
    ({"type": "xos", "clauses": ["12", "30"]}, 2),
    ({"type": "xos", "clauses": "12"}, 1),
    ({"type": "coverage", "weights": "1", "covers": [[0]]}, 1),
], ids=str)
def test_reward_fields_must_be_json_lists(reward, m, tmp_path, capsys):
    """A string or an object iterates as characters or keys: "05" would read
    as the table [0, 5]. Every list field of a reward must be a JSON list."""
    doc = {"agents": [{"id": i, "actions": [{"id": i, "cost": "0"}]} for i in range(m)],
           "reward": reward}
    assert exit_code(["classify", write(tmp_path, "reward.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad reward payload: ")
    assert captured.err.rstrip().endswith("must be a list")


def test_classify_follows_the_profile_cap(tmp_path, monkeypatch, capsys):
    """classify enumerates 2^m profiles, under CONTRACTLAB_CAP like every
    other exponential allocation."""
    monkeypatch.setenv("CONTRACTLAB_CAP", "24,16")
    four, five = (random_instance("additive", 1, m, 1) for m in (4, 5))
    assert classify(four.reward).additive
    with pytest.raises(CapacityError, match="classify: 32 profiles"):
        classify(five.reward)
    assert exit_code(["classify", write(tmp_path, "four.json",
                                        cli.instance_to_json(four))]) == 0
    capsys.readouterr()
    assert exit_code(["classify", write(tmp_path, "five.json",
                                        cli.instance_to_json(five))]) == 3
    assert capsys.readouterr().err.startswith("capacity: classify: 32 profiles")


def two_agent_doc():
    return {"agents": [{"id": 0, "actions": [{"id": 0, "cost": "0"}]},
                       {"id": 1, "actions": [{"id": 1, "cost": "1/2"}]}],
            "reward": {"type": "additive", "values": ["1", "2"]}}


def set_cost(doc, value):
    doc["agents"][1]["actions"][0]["cost"] = value


def set_first_id(doc, value):
    doc["agents"][0]["actions"][0]["id"] = value


def set_second_id(doc, value):
    doc["agents"][1]["actions"][0]["id"] = value


def set_reward_value(doc, value):
    doc["reward"]["values"][1] = value


@pytest.mark.parametrize("edit, value", [
    (set_cost, True), (set_cost, False), (set_reward_value, True),
    (set_second_id, True), (set_first_id, False), (set_second_id, 1.0),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_booleans_and_float_ids_are_not_numbers(edit, value, tmp_path, capsys):
    """json reads true as True, which is the int 1: a boolean cost, reward
    value or action id, or a float id such as 1.0, is a usage error."""
    doc = two_agent_doc()
    assert exit_code(["classify", write(tmp_path, "good.json", doc)]) == 0
    capsys.readouterr()
    edit(doc, value)
    assert exit_code(["classify", write(tmp_path, "bad.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_a_boolean_probability_is_a_usage_error(separation_path, tmp_path, capsys):
    with pytest.raises(cli.InputError, match="boolean"):
        cli.parse_scalar(True)
    dist = write(tmp_path, "d.json", {"support": [{"profile": [], "prob": True}]})
    assert exit_code(["verify", separation_path, "--contract", "1/36,1/36",
                      "--distribution", dist, "--concept", "cce"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad rational True: a boolean is not a number\n"


@pytest.mark.parametrize("raw", ["1/2,,1/2", " ,1/2,1/2,", "1/2,1/2,", ",1/2,1/2"])
def test_an_empty_contract_share_is_a_usage_error(raw, separation_path, capsys):
    """A --profile with an empty item is refused; so is a --contract."""
    with pytest.raises(cli.InputError, match="empty share"):
        cli.parse_contract(raw, 2)
    assert exit_code(["robustify", separation_path, "--contract", raw,
                      "--profile", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad contract {raw!r}: empty share\n"


@pytest.mark.parametrize("reward", [
    AdditiveReward(["1/2", "-3", "2/7"]),
    XosReward([["1/2", 3, 0], ["5/9", "1/6", 1]]),
], ids=["additive", "xos"])
def test_clause_rewards_round_trip_as_their_own_type(reward):
    """Additive and XOS rewards share one kernel but not one JSON type."""
    inst = make_instance([[1, "1/2"], [0]], reward)
    doc = cli.instance_to_json(inst)
    assert doc["reward"]["type"] == type(reward).__name__[:-len("Reward")].lower()
    back = cli.instance_from_json(json.loads(cli.canonical_json(doc)))
    assert type(back.reward) is type(reward)
    assert back.reward.table() == reward.table()
    assert cli.instance_to_json(back) == doc


@pytest.mark.parametrize("concept", ["ce", "cce", "dropout"])
def test_verify_distribution_concepts(concept, separation_path, tmp_path, capsys):
    # the point mass on {0, 1} is an equilibrium at 1/20 each; at 1/36 agent
    # 0 earns 200/36 - 1 = 41/9 by working and 180/36 = 5 by dropping out
    point = write(tmp_path, "point.json",
                  {"support": [{"profile": [0, 1], "prob": "1"}]})
    argv = ["verify", separation_path, "--distribution", point,
            "--concept", concept, "--contract"]
    assert cli.main(argv + ["1/20,1/20"]) == 0
    assert capsys.readouterr().out == f"{concept}: holds\n"
    assert cli.main(argv + ["1/36,1/36"]) == 1
    recommendation = ["  on recommendation {0}"] if concept == "ce" else []
    assert capsys.readouterr().out.splitlines() == [
        f"{concept}: violated by agent 0 deviating to {{}}", *recommendation,
        "  utility following: 41/9", "  utility deviating: 5"]


# contract and profile on the separation example: Cases A (three ways), B, C
# and D (three ways)
ROBUSTIFY_INPUTS = [("1/20,1/20", "0,1"), ("1/20,1/20", "1"), ("1/36,1/36", "1"),
                    ("0,0", ""), ("1/2,1/2", "0,1"), ("9/10,0", "0"),
                    ("4/5,1/10", "0,1"), ("1,0", "0")]


@pytest.mark.parametrize("contract, profile", ROBUSTIFY_INPUTS)
def test_robustify_decides_its_case_once(contract, profile, separation_path,
                                         monkeypatch, capsys):
    """One case split per run, and the case and contract printed are those
    of the public calls, each of which splits on its own."""
    inst = separation_example()
    a, S = Contract.of(contract.split(",")), cli.parse_profile(profile, inst)
    case = transforms.robustify_case(inst, a, S)
    robust = cli.contract_str(transforms.robustify_submodular(inst, a, S))
    splits = []
    split = transforms._robust_split
    monkeypatch.setattr(transforms, "_robust_split",
                        lambda *args: splits.append(args) or split(*args))
    assert cli.main(["robustify", separation_path, "--contract", contract,
                     "--profile", profile]) == 0
    assert len(splits) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [f"case: {case}",
                                                        f"contract: {robust}"]


def test_gen_supermodular_gap(capsys):
    assert cli.main(["gen", "supermodular-gap"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == cli.instance_to_json(supermodular_cce_gap_instance())


def test_gen_random_needs_a_kind(capsys):
    assert cli.main(["gen", "random"]) == 2
    assert capsys.readouterr().err == "error: random generation needs --kind\n"


def test_library_errors_on_the_input_print_their_own_message(separation_path,
                                                             tmp_path, capsys):
    """A ValueError the library raises on a parsed contract or instance
    reaches ``main`` as it is: exit 2 and its message after ``error:``."""
    assert cli.main(["robustify", separation_path, "--contract", "3/2,0",
                     "--profile", ""]) == 2
    assert capsys.readouterr().err == "error: share Fraction(3, 2) outside [0, 1]\n"
    empty = write(tmp_path, "empty.json",
                  {"agents": [], "reward": {"type": "additive", "values": []}})
    assert cli.main(["classify", empty]) == 2
    assert capsys.readouterr().err == "error: need at least one agent\n"

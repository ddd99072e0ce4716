import json

import pytest

from contractlab import cli
from contractlab.fixtures import (
    separation_example,
    subadditive_gap_instance,
    supermodular_cce_gap_instance,
)


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


def test_gen_capacity(capsys):
    # the subadditive family at n = 16 has 34 actions, past the default cap
    assert cli.main(["gen", "subadditive-gap", "--n", "16"]) in (2, 3)
    capsys.readouterr()


def test_reproduce_every_claim(capsys):
    for claim in sorted(cli.REPRODUCE):
        assert cli.main(["reproduce", claim]) == 0, claim
        assert "MISMATCH" not in capsys.readouterr().out
    assert cli.main(["reproduce", "no-such-claim"]) == 2
    capsys.readouterr()


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
    assert "error: n must be a perfect square" in capsys.readouterr().err


def test_gen_golden_too_few_digits(capsys):
    assert exit_code(["gen", "golden", "--digits", "3"]) == 2
    assert "error: need at least 20 digits" in capsys.readouterr().err


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

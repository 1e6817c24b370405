import json

import pytest

from mdpreg import build_two_goals, save_mdp_spec
from mdpreg.cli import main
from mdpreg.properties import CheckResult


def test_preset_list_prints_names(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out
    assert "cliff-random" in out and "grid-start-limited" in out


def test_unknown_preset_fails(capsys):
    assert main(["preset", "no-such-thing"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_preset_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["preset", "twogoals-random", "--replications", "2",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,strength,")
    assert "mean_loss" in capsys.readouterr().out


def test_run_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "mdp": "grid",
        "methods": ["eps_greedy"],
        "eps_grid": [0.0, 0.5],
        "collection": {"n_trajectories": 3, "trajectory_length": 5},
        "replications": 2,
        "master_seed": 3,
        "out": str(tmp_path / "res.csv"),
    }))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "res.csv").exists()


def test_run_accepts_preset_flag(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["run", "--preset", "grid-random", "--replications", "2",
                 "--out", str(out)])
    assert code == 0 and out.exists()


def test_run_surfaces_config_problems(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text('{"mdp": "grid", "collection": {"n_trajectories": 3,'
                        ' "trajectory_length": 5}, "bogus": 1}')
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_mdp_validate_accepts_good_spec(tmp_path, capsys):
    path = tmp_path / "tg.json"
    save_mdp_spec(build_two_goals(), path)
    assert main(["mdp", "validate", str(path)]) == 0
    assert "OK: two_goals" in capsys.readouterr().out


def test_mdp_validate_rejects_bad_spec(tmp_path, capsys):
    path = tmp_path / "tg.json"
    save_mdp_spec(build_two_goals(), path)
    doc = json.loads(path.read_text())
    doc["gamma"] = 1.5
    path.write_text(json.dumps(doc))
    assert main(["mdp", "validate", str(path)]) == 2
    assert "gamma" in capsys.readouterr().err


def test_mdp_validate_missing_file(tmp_path, capsys):
    assert main(["mdp", "validate", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_check_verb_reports_and_sets_exit_code(monkeypatch, capsys):
    fake = [CheckResult("alpha", True, "fine", 0.1),
            CheckResult("beta", False, "broken", 0.2)]
    monkeypatch.setattr("mdpreg.cli.run_acceptance", lambda **kw: fake)
    assert main(["check", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] alpha" in out and "[FAIL] beta" in out

    monkeypatch.setattr("mdpreg.cli.run_acceptance", lambda **kw: fake[:1])
    assert main(["check"]) == 0


def test_run_reports_each_ill_typed_field_without_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "mdp": "grid",
        "collection": {"n_trajectories": 3, "trajectory_length": 5},
        "replications": "abc",
        "eps_grid": ["x"],
    }))
    assert main(["run", "--config", str(cfg_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)
    assert "replications must be an integer" in lines[0] + lines[1]
    assert "eps_grid must be a list of finite numbers" in lines[0] + lines[1]


def _set_nan(doc, table, index):
    row = doc[table]
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = float("nan")


@pytest.mark.parametrize("edit,needle", [
    (lambda doc: doc.update(gamma="x"), "field 'gamma' must be a number in [0, 1)"),
    (lambda doc: doc.update(gamma=None), "field 'gamma' must be a number in [0, 1)"),
    (lambda doc: doc.update(absorbing=5), "field 'absorbing' must be a list of integer"),
    (lambda doc: doc.update(absorbing=["a"]), "field 'absorbing' must be a list of integer"),
    (lambda doc: doc.update(absorbing=[1.5]), "field 'absorbing' must be a list of integer"),
    (lambda doc: doc.update(n_states="2"), "field 'n_states' must be a positive integer"),
    (lambda doc: _set_nan(doc, "transition", (0, 3, 2)),
     "transition has a non-finite entry at index (0, 3, 2)"),
    (lambda doc: _set_nan(doc, "reward_mean", (4, 1)),
     "reward_mean has a non-finite entry at index (4, 1)"),
], ids=["gamma-string", "gamma-null", "absorbing-int", "absorbing-strings",
        "absorbing-float", "n_states-string", "transition-nan", "reward_mean-nan"])
def test_mdp_validate_rejects_malformed_field(tmp_path, capsys, edit, needle):
    path = tmp_path / "tg.json"
    save_mdp_spec(build_two_goals(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["mdp", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and needle in line

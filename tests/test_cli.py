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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_check_rejects_workers_below_one(monkeypatch, capsys, workers):
    # rejected like `run --workers 0`, not replaced by default_workers()
    ran = []
    monkeypatch.setattr("mdpreg.cli.run_acceptance", lambda **kw: ran.append(kw) or [])
    assert main(["check", "--quick", "--workers", workers]) == 2
    assert capsys.readouterr().err == "error: workers must be >= 1\n"
    assert ran == []


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
    (lambda doc: doc["reward_std"][0].__setitem__(0, "0.5"),
     "field 'reward_std' must be nested lists of JSON numbers"),
    (lambda doc: doc.update(start_dist=[True] + [False] * 11),
     "field 'start_dist' must be nested lists of JSON numbers"),
    (lambda doc: doc["transition"][1].pop(), "field 'transition' must be nested lists"),
    (lambda doc: doc.update(reward_mean=[[10 ** 400] * 3] * 12),
     "field 'reward_mean' must be nested lists of JSON numbers"),
    (lambda doc: doc.update(name=["x"]), "field 'name' must be a string, got ['x']"),
    (lambda doc: doc.update(start_dist=doc["start_dist"][:5]),
     "field 'start_dist' must have shape (12,), got (5,)"),
], ids=["gamma-string", "gamma-null", "absorbing-int", "absorbing-strings",
        "absorbing-float", "n_states-string", "transition-nan", "reward_mean-nan",
        "reward_std-string", "start_dist-bool", "transition-ragged", "reward_mean-huge-int",
        "name-list", "start_dist-shape"])
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


def test_mdp_validate_reports_every_spec_problem(tmp_path, capsys):
    path = tmp_path / "tg.json"
    save_mdp_spec(build_two_goals(), path)
    doc = json.loads(path.read_text())
    doc.update(name=7, reward_std=doc["reward_std"][:3], start_dist=[0.5, 0.5],
               transition=doc["transition"][:2])
    path.write_text(json.dumps(doc))
    assert main(["mdp", "validate", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.startswith("error: ") for line in lines)
    for needle in ("'name' must be a string", "'transition' must have shape (3, 12, 12)",
                   "'reward_std' must have shape (12, 3)", "'start_dist' must have shape (12,)"):
        assert sum(needle in line for line in lines) == 1


@pytest.mark.parametrize("start_mode,needles", [
    ({"set": [0, 0, 1]}, ["start states [0, 0, 1] have duplicates"]),
    ({"fixed": 99}, ["start state 99 out of range [0, 10) of MDP 'grid'"]),
    ({"set": [-1, 2, 10]}, ["start state -1 out of range", "start state 10 out of range"]),
], ids=["duplicate", "fixed-too-large", "set-out-of-range"])
def test_run_rejects_bad_start_states(tmp_path, capsys, monkeypatch, start_mode, needles):
    monkeypatch.setattr("mdpreg.harness._replication_task", None)  # no replication may run
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "mdp": "grid", "replications": 2, "methods": ["none"],
        "collection": {"n_trajectories": 3, "trajectory_length": 5, "start_mode": start_mode},
    }))
    assert main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == len(needles) and "mean_loss" not in captured.out
    for line, needle in zip(lines, needles):
        assert line.startswith("error: ") and needle in line

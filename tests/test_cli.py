import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mdpreg import build_two_goals, builtin_presets, save_mdp_spec
from mdpreg.cli import main
from mdpreg import properties
from mdpreg.properties import CheckResult


def test_preset_list_prints_names(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out
    assert "cliff-random" in out and "grid-start-limited" in out


def test_unknown_preset_fails(capsys):
    assert main(["preset", "no-such-thing"]) == 2
    assert capsys.readouterr().err == \
        "error: unknown preset 'no-such-thing'; try `mdpreg preset --list`\n"


def test_preset_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["preset", "twogoals-random", "--replications", "2",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,strength,")
    assert "mean_loss" in capsys.readouterr().out


def test_sweep_writes_each_preset_as_preset_does(tmp_path, capsys):
    names = ["grid-random", "twogoals-start-small"]
    overrides = ["--replications", "3", "--seed", "5", "--workers", "2"]
    assert main(["sweep", "--out-dir", str(tmp_path / "d"), "--presets", ",".join(names),
                 *overrides]) == 0
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [f"{n}.csv" for n in names]
    for name in names:
        assert main(["preset", name, "--out", str(tmp_path / "one.csv"), *overrides]) == 0
        assert (tmp_path / "d" / f"{name}.csv").read_bytes() == \
            (tmp_path / "one.csv").read_bytes()


def test_sweep_runs_every_preset_by_default(tmp_path, capsys):
    assert main(["sweep", "--out-dir", str(tmp_path), "--replications", "1"]) == 0
    written = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
    assert written == [str(tmp_path / f"{name}.csv") for name in builtin_presets()]


def test_sweep_rejects_unknown_presets_before_running(tmp_path, capsys):
    code = main(["sweep", "--out-dir", str(tmp_path / "d"),
                 "--presets", "nope,grid-random,bad"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown preset 'nope'; try `mdpreg preset --list`",
        "error: unknown preset 'bad'; try `mdpreg preset --list`"]
    assert not (tmp_path / "d").exists()


def test_sweep_rejects_a_repeated_preset(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mdpreg.cli.run_experiment", None)  # nothing may run
    code = main(["sweep", "--out-dir", str(tmp_path / "d"),
                 "--presets", "grid-random,nope,grid-random,nope"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: preset 'grid-random' is listed 2 times",
        "error: unknown preset 'nope'; try `mdpreg preset --list`",
        "error: preset 'nope' is listed 2 times"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flag", ["--replications", "--workers"])
def test_sweep_rejects_a_bad_override_before_making_its_directory(tmp_path, capsys,
                                                                  monkeypatch, flag):
    monkeypatch.setattr("mdpreg.cli.run_experiment", None)  # nothing may run
    assert main(["sweep", "--out-dir", str(tmp_path / "d"), flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag[2:]} must be >= 1\n" and captured.out == ""
    assert not (tmp_path / "d").exists()


def test_pooled_preset_exits(tmp_path):
    # the shared pool's idle workers are joined when the interpreter exits
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "mdpreg.cli", "preset", "grid-random",
                           "--replications", "20", "--workers", "2",
                           "--out", str(tmp_path / "g.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "g.csv").exists()


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


@pytest.mark.parametrize("route", ["preset", "config"])
def test_out_in_a_missing_directory_fails_before_running(tmp_path, capsys, monkeypatch,
                                                         route):
    def no_run(cfg):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("mdpreg.cli.run_experiment", no_run)
    out = str(tmp_path / "missing" / "x.csv")
    if route == "preset":
        argv = ["preset", "grid-random", "--replications", "50", "--out", out]
    else:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"mdp": "grid", "out": out, "collection": {
            "n_trajectories": 3, "trajectory_length": 5}}))
        argv = ["run", "--config", str(cfg_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out!r}: its directory does not exist\n"
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("route", ["preset", "config", "sweep"])
def test_out_that_is_a_directory_fails_before_running(tmp_path, capsys, monkeypatch, route):
    def no_run(cfg):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("mdpreg.cli.run_experiment", no_run)
    out = tmp_path / "grid-random.csv"
    out.mkdir()
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"mdp": "grid", "out": str(out), "collection": {
        "n_trajectories": 3, "trajectory_length": 5}}))
    argv = {"preset": ["preset", "grid-random", "--replications", "2", "--out", str(out)],
            "config": ["run", "--config", str(cfg_path)],
            # cliff-random runs first and its CSV could be written
            "sweep": ["sweep", "--out-dir", str(tmp_path), "--presets",
                      "cliff-random,grid-random", "--replications", "2"]}[route]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {str(out)!r}: it is a directory\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["exp.json", "grid-random.csv"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("route", ["preset", "config"])
def test_empty_out_fails_before_running(tmp_path, capsys, monkeypatch, route):
    def no_run(cfg):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("mdpreg.cli.run_experiment", no_run)
    monkeypatch.chdir(tmp_path)
    Path("exp.json").write_text(json.dumps({"mdp": "grid", "out": "", "collection": {
        "n_trajectories": 3, "trajectory_length": 5}}))
    argv = {"preset": ["preset", "grid-random", "--replications", "2", "--out", ""],
            "config": ["run", "--config", "exp.json"]}[route]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out must not be an empty path\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["exp.json"]


def test_run_takes_only_a_config(capsys):
    # `mdpreg preset NAME` runs a preset; `run --preset` is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "grid-random"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


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


def test_check_decorator_times_names_and_bounds():
    @properties._check("named", limit_s=0.0)
    def body(size: int = 3):
        return size == 3, f"size {size}"

    assert list(inspect.signature(body).parameters) == ["size"]
    result = body()
    assert (result.name, result.passed, result.detail) == ("named", False, "size 3")
    assert result.seconds >= 0.0
    assert properties._check("unbounded")(body.__wrapped__)().passed


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_check_rejects_workers_below_one(monkeypatch, capsys, workers):
    # rejected like `run --workers 0`, not replaced by the default of 8
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
    assert "eps_grid must be a tuple or list of real numbers" in lines[0] + lines[1]


def _set_nan(doc, table, index):
    row = doc[table]
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = float("nan")


@pytest.mark.parametrize("edit,needle", [
    (lambda doc: doc.update(gamma="x"), "field 'gamma' must be a finite number, got 'x'"),
    (lambda doc: doc.update(gamma=None), "field 'gamma' must be a finite number, got None"),
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
    (lambda doc: doc["reward_mean"][0].__setitem__(0, True),
     "field 'reward_mean' must be nested lists of JSON numbers"),
    (lambda doc: doc["transition"][1].pop(), "field 'transition' must be nested lists"),
    (lambda doc: doc.update(reward_mean=[[10 ** 400] * 3] * 12),
     "field 'reward_mean' must be nested lists of JSON numbers"),
    (lambda doc: doc.update(name=["x"]), "field 'name' must be a string, got ['x']"),
    (lambda doc: doc.update(reward_std=doc["reward_std"][:5]),
     "field 'reward_std' must have shape (12, 3), got (5, 3)"),
], ids=["gamma-string", "gamma-null", "absorbing-int", "absorbing-strings",
        "absorbing-float", "n_states-string", "transition-nan", "reward_mean-nan",
        "reward_std-string", "reward_mean-bool", "transition-ragged", "reward_mean-huge-int",
        "name-list", "reward_std-shape"])
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
    doc.update(name=7, reward_std=doc["reward_std"][:3], reward_mean=doc["reward_mean"][:2],
               transition=doc["transition"][:2])
    path.write_text(json.dumps(doc))
    assert main(["mdp", "validate", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.startswith("error: ") for line in lines)
    for needle in ("'name' must be a string", "'transition' must have shape (3, 12, 12)",
                   "'reward_std' must have shape (12, 3)", "'reward_mean' must have shape (12, 3)"):
        assert sum(needle in line for line in lines) == 1


@pytest.mark.parametrize("start_mode,needles", [
    ({"set": [0, 0, 1]}, ["start states [0, 0, 1] have duplicates"]),
    ({"fixed": 99}, ["start state 99 out of range [0, 10) of MDP 'grid'"]),
    ({"set": [-1, 2, 10]}, ["start state -1 out of range", "start state 10 out of range"]),
], ids=["duplicate", "fixed-too-large", "set-out-of-range"])
def test_run_rejects_bad_start_states(tmp_path, capsys, monkeypatch, start_mode, needles):
    monkeypatch.setattr("mdpreg.harness._block_task", None)  # no replication may run
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


NOT_UTF8 = b"\xff\xfe{\x00}\x00"  # a UTF-16 byte-order mark and "{}"


def _config(tmp_path, mdp):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"mdp": mdp, "replications": 1, "methods": ["none"],
                                "collection": {"n_trajectories": 2, "trajectory_length": 3}}))
    return path


@pytest.mark.parametrize("route", ["run-config", "mdp-validate", "config-mdp-spec"])
def test_non_utf8_file_is_one_error_line(tmp_path, capsys, route):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    argv = {"run-config": ["run", "--config", str(bad)],
            "mdp-validate": ["mdp", "validate", str(bad)],
            "config-mdp-spec": ["run", "--config", str(_config(tmp_path, str(bad)))]}[route]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"
    assert "mean_loss" not in captured.out


def test_misspelled_builtin_mdp_lists_the_builtins(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no file named "clif" here
    assert main(["run", "--config", str(_config(tmp_path, "clif"))]) == 2
    assert capsys.readouterr().err == ("error: mdp 'clif' is neither a builtin MDP"
                                       " (cliff, two_goals, grid) nor an existing file\n")


def test_run_reports_every_range_problem_at_once(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "mdp": "grid", "replications": 0, "workers": 0,
        "collection": {"n_trajectories": 0, "trajectory_length": 0, "p_optimal": 2.0,
                       "start_mode": {"set": [1, 1]}},
    }))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: start states [1, 1] have duplicates",
        "error: n_trajectories must be positive",
        "error: trajectory_length must be positive",
        "error: p_optimal must be in [0, 1], got 2.0",
        "error: replications must be >= 1",
        "error: workers must be >= 1",
    ]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_replication_is_one_error_line(tmp_path, capsys, workers):
    # the loader accepts this size; generating the dataset cannot allocate it
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "mdp": "grid", "methods": ["none"], "replications": 1,
        "collection": {"n_trajectories": 10 ** 15, "trajectory_length": 5},
    }))
    assert main(["run", "--config", str(cfg_path), "--workers", workers]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert re.fullmatch(r"error: replication 0 \(child seed \d+\) failed: .+", line)
    assert "mean_loss" not in captured.out

"""Runs the README's "Library example" code block and every `mdpreg` line of
its shell blocks, and loads its config and MDP spec examples, so that the
examples keep working as the library and the command line change."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from mdpreg import (CollectionConfig, ExperimentConfig, ResultRow, build_two_goals,
                    builtin_presets, cli, load_experiment_config, load_mdp_spec)
from mdpreg.environments import _SPEC_FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(25, 20) 500"
    assert float(lines[1]) >= -1e-9  # a policy loss is never negative
    assert lines[2] == "(3, 48) (3, 48, 4)"


def test_config_block_loads_and_names_every_field(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Experiment config (JSON)", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, flags=re.S).group(1)
    path = tmp_path / "exp.json"
    path.write_text(block, encoding="utf-8")
    load_experiment_config(path)
    doc = json.loads(block)
    assert set(doc) == {f.name for f in fields(ExperimentConfig)}
    assert set(doc["collection"]) == {f.name for f in fields(CollectionConfig)}


def test_spec_block_loads_and_names_every_field(tmp_path):
    section = README.read_text(encoding="utf-8").split("## MDP spec file (JSON)", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, flags=re.S).group(1)
    path = tmp_path / "mdp.json"
    path.write_text(block, encoding="utf-8")
    mdp = load_mdp_spec(path)
    assert (mdp.name, mdp.n_states, mdp.n_actions) == ("my_mdp", 2, 1)
    assert set(json.loads(block)) == set(_SPEC_FIELDS)


def test_cli_lines_parse_and_exit_0(tmp_path, monkeypatch, capsys):
    # stubs stand in for the runs and the files the lines name; the parser,
    # the preset lookup and the overrides are the real ones
    row = ResultRow("none", 0.0, 0.0, 0.0, 0.0, 0.0, 1, "0" * 12)
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: [row])
    monkeypatch.setattr(cli, "run_acceptance", lambda **kw: [])
    monkeypatch.setattr(cli, "load_experiment_config",
                        lambda path: builtin_presets()["grid-random"])
    monkeypatch.setattr(cli, "load_mdp_spec", lambda path: build_two_goals())
    monkeypatch.setattr(cli, "emit_csv", lambda rows, path: None)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    argvs = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("mdpreg ")]
    assert len(argvs) >= 8
    for argv in argvs:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv

"""The README's examples run as written.

Each ```python block runs in a fresh namespace with warnings as errors, and
the ```json config runs through the command line with one replicate.
"""

import dataclasses
import json
import pathlib
import re
import warnings

import pytest

from lowrank_iht import IhtConfig, SparseConfig
from lowrank_iht.cli import _COMMAND_MODE, main

_README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", _README, re.MULTILINE | re.DOTALL)


_PYTHON = _blocks("python")


def test_the_readme_has_its_examples():
    assert len(_PYTHON) == 3
    assert len(_blocks("json")) == 1


@pytest.mark.parametrize("index", range(len(_PYTHON)))
def test_python_example_runs(index):
    code = compile(_PYTHON[index], f"README.md python block {index + 1}", "exec")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(code, {"__name__": "readme_example"})


def test_json_config_runs(tmp_path, capsys):
    (text,) = _blocks("json")
    config = tmp_path / "config.json"
    config.write_text(text)
    command = {mode: command for command, mode in _COMMAND_MODE.items()}[json.loads(text)["mode"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(config), "--replicates", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("block, config", [("iht", IhtConfig), ("sparse_estimator", SparseConfig)])
def test_the_estimator_keys_it_lists_are_the_config_fields(block, config):
    # "`"iht"` takes `upsilon` and `t0`": a key the README lists must be
    # accepted, and a field it leaves out is one a reader cannot find
    (listed,) = re.findall(rf'`"{block}"` takes ((?:`\w+`(?:,\s+|\s+and\s+)?)+)', _README)
    keys = re.findall(r"`(\w+)`", listed)
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(config))

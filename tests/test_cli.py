import json
import subprocess
import sys

import pytest

from lowrank_iht import iht
from lowrank_iht.cli import main
from lowrank_iht.experiments import read_csv
from lowrank_iht.sparse import AssumptionViolationError


def _run(*argv):
    return subprocess.run([sys.executable, "-m", "lowrank_iht", *argv],
                          capture_output=True, text=True)


def test_tiny_sparse_run_and_report(tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "sparse", "replicates": 2, "seed": 3,
        "p_values": [20], "k_values": [2], "n_values": [150],
    }))
    proc = _run("simulate-sparse", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "metrics.csv" in proc.stdout
    for name in ("metrics.csv", "aggregate.csv", "timings.csv", "coordinates.csv"):
        assert (out / name).exists()
    _, rows = read_csv(out / "metrics.csv")
    assert len(rows) == 2
    # report recomputes the aggregate in place
    (out / "aggregate.csv").unlink()
    proc = _run("report", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "aggregate.csv").exists()


def test_config_flag_overrides(tmp_path):
    out = tmp_path / "o"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "mode": "matrix_sim", "replicates": 5, "seed": 1,
        "d_values": [6], "k_values": [1], "n_values": [40],
    }))
    proc = _run("simulate-matrix", "--config", str(config), "--out", str(out),
                "--replicates", "1", "--seed", "9")
    assert proc.returncode == 0, proc.stderr
    _, rows = read_csv(out / "metrics.csv")
    assert len(rows) == 1


def test_missing_config_file_exits_2(tmp_path):
    proc = _run("simulate-matrix", "--config", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


@pytest.mark.parametrize("command", ["report", "simulate-matrix"])
@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", '"out"', "\xff\xfe"],
                         ids=["missing", "malformed", "list-root", "string-root",
                              "not-utf8"])
def test_unreadable_or_malformed_config_exits_2(tmp_path, capsys, command, content):
    config = tmp_path / "c.json"
    if content is not None:
        config.write_bytes(content.encode("latin-1"))
    code = main([command, "--config", str(config)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    # the grids draw Gaussian designs only, so design is no key either, not
    # even at its old default
    config = tmp_path / "c.json"
    for key, value in (("fidelity", True), ("design", "gaussian")):
        config.write_text(json.dumps({"mode": "matrix_sim", "d_values": [4],
                                      "k_values": [1], "n_values": [10], key: value}))
        proc = _run("simulate-matrix", "--config", str(config),
                    "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"unknown config keys: ['{key}']" in proc.stderr


_TINY = {
    "simulate-matrix": {"replicates": 1, "d_values": [4], "k_values": [1],
                        "n_values": [40]},
    "simulate-quantum": {"replicates": 1, "m_values": [1], "k_values": [1],
                         "alpha_values": [1], "t_factors": [2]},
    "simulate-sparse": {"replicates": 1, "p_values": [10], "k_values": [1],
                        "n_values": [60]},
}
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, override", [
    ("simulate-matrix", {"iht": {"upsilon": _NAN}}),
    ("simulate-matrix", {"iht": {"t0": _INF}}),
    ("simulate-sparse", {"sparse_estimator": {"t0": _NAN}}),
    ("simulate-sparse", {"sparse_estimator": {"upsilon": _INF}}),
    ("simulate-matrix", {"noise_std": _NAN}),
    ("simulate-matrix", {"noise_std": _INF}),
    ("simulate-quantum", {"t_factors": [_INF]}),
    ("simulate-matrix", {"replicates": True}),
    ("simulate-matrix", {"seed": True}),
    ("simulate-matrix", {"d_values": [True]}),
    ("simulate-sparse", {"sparse_estimator": {"k_cap": True}}),
    ("simulate-sparse", {"n_values": [1]}),
    ("simulate-matrix", {"two_sided_correct": "false"}),
    ("simulate-matrix", {"two_sided_correct": True}),
    ("simulate-sparse", {"p_values": [20], "sparse_estimator": {"k_cap": 50}}),
], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
def test_non_finite_number_or_bool_for_an_int_exits_2(tmp_path, capsys, command, override):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY[command], **override}))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # the config is refused before anything is written
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, override", [
    ("simulate-quantum", {"noise_std": 123}),
    ("simulate-quantum", {"level": 0.5}),
    ("simulate-quantum", {"p_values": [10]}),
    ("simulate-quantum", {"d_values": [4]}),
    ("simulate-quantum", {"sparse_estimator": {"t0": 1.0}}),
    ("simulate-sparse", {"iht": {"upsilon": 0.4}}),
    ("simulate-sparse", {"m_values": [2]}),
    ("simulate-matrix", {"alpha_values": [2]}),
    ("simulate-matrix", {"sparse_estimator": {"k_cap": 2}}),
], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
def test_a_field_the_mode_does_not_read_exits_2(tmp_path, capsys, command, override):
    # a set field the run would ignore is refused, named, before anything is written
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY[command], **override}))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"does not read {list(override)[-1]};" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_field_the_mode_does_not_read_may_keep_its_default(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY["simulate-quantum"], "noise_std": 1, "level": 0.95,
                                  "p_values": [], "sparse_estimator": {}}))
    code = main(["simulate-quantum", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("simulate-matrix", {"d_values": [4.7]}),
    ("simulate-matrix", {"n_values": [40.9]}),
    ("simulate-matrix", {"k_values": ["1"]}),
    ("simulate-matrix", {"replicates": 1.0}),
    ("simulate-matrix", {"seed": "3"}),
    ("simulate-sparse", {"sparse_estimator": {"k_cap": 1.5}}),
], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
def test_non_integer_for_an_int_exits_2(tmp_path, capsys, command, override):
    # a float or a string is refused, not truncated to an int
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY[command], **override}))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("simulate-matrix", {"noise_std": True}),
    ("simulate-matrix", {"level": "0.9"}),
    ("simulate-matrix", {"iht": {"upsilon": True}}),
    ("simulate-matrix", {"iht": {"upsilon": "0.9"}}),
    ("simulate-matrix", {"iht": {"t0": True}}),
    ("simulate-quantum", {"alpha_values": [True, "2"]}),
    ("simulate-quantum", {"t_factors": ["10"]}),
    ("simulate-sparse", {"sparse_estimator": {"t0": True}}),
    # a string t0 is refused even next to a valid k_cap
    ("simulate-sparse", {"sparse_estimator": {"k_cap": 1, "t0": "0.05"}}),
    ("simulate-sparse", {"sparse_estimator": {"upsilon": True}}),
], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
def test_bool_or_string_for_a_float_exits_2(tmp_path, capsys, command, override):
    # a bool is not read as 0 or 1, and a string is not parsed
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY[command], **override}))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "must be a number" in capsys.readouterr().err


def test_mode_mismatch_exits_2(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "sparse", "p_values": [10],
                                  "k_values": [1], "n_values": [50]}))
    proc = _run("simulate-matrix", "--config", str(config),
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "does not match subcommand" in proc.stderr


def test_a_quantum_cell_with_no_settings_exits_2(tmp_path, capsys):
    # alpha * k * 2^m = 0.08 rounds to 0 settings; such a cell passed the
    # config and failed in the run with exit 3
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"m_values": [3], "k_values": [1],
                                  "alpha_values": [0.01], "t_factors": [10]}))
    code = main(["simulate-quantum", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cell m=3 k=1 alpha=0.01 asks for 0 settings" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_output_dir_exits_2(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "matrix_sim", "d_values": [4],
                                  "k_values": [1], "n_values": [10]}))
    proc = _run("simulate-matrix", "--config", str(config))
    assert proc.returncode == 2
    assert "output directory" in proc.stderr


def test_report_on_missing_metrics_exits_4(tmp_path):
    proc = _run("report", "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "I/O error" in proc.stderr


@pytest.mark.parametrize("data", [
    b"",
    b"# schema=1\nd,k\n1,2\n",
    b"# schema=1\nd,replicate,foo\n3,0,abc\n",
    b"# schema=1\nd,k,replicate,foo\n3,1,0,1.0\n2\n",
    b"\xff\xfe# schema=1\nd,replicate\n3,0\n",
], ids=["empty", "no-replicate-column", "non-numeric-metric", "short-row", "non-utf8"])
def test_report_on_malformed_metrics_exits_4(tmp_path, capsys, data):
    # a metrics.csv that does not parse is a bad input file, not a numerical
    # failure, and the aggregate is not written; a file that is not UTF-8 is
    # named like any other
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(data)
    assert main(["report", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and str(metrics) in err
    assert not (tmp_path / "aggregate.csv").exists()


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    import lowrank_iht.cli as cli_module

    def boom(config):
        raise AssumptionViolationError("2 r_K >= 1")

    monkeypatch.setattr(cli_module, "run_experiment", boom)
    code = main(["simulate-sparse", "--out", str(tmp_path / "o")])
    assert code == 3


def test_no_subcommand_is_a_usage_error():
    proc = _run()
    assert proc.returncode == 2


def test_violated_stopping_bound_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(iht, "schedule_iteration_bound", lambda t0, ups: 0.0)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "mode": "matrix_sim", "replicates": 1, "seed": 1,
        "d_values": [6], "k_values": [1], "n_values": [40],
        "iht": {"upsilon": 0.05, "t0": 2.0},
    }))
    code = main(["simulate-matrix", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "stopping bound violated" in capsys.readouterr().err


def test_fixed_schedule_seeded_at_zero_exits_0(tmp_path, capsys):
    # T0 = 0 passes validation; the run must not take log(0) for its bound
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY["simulate-matrix"], "iht": {"upsilon": 0.1, "t0": 0}}))
    code = main(["simulate-matrix", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0, capsys.readouterr().err
    _, rows = read_csv(tmp_path / "o" / "metrics.csv")
    assert len(rows) == 1


def test_package_import_pulls_in_neither_scipy_nor_the_process_pool():
    probe = ("import sys, lowrank_iht; "
             "print(sorted(m for m in ('scipy', 'concurrent.futures.process') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

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
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "matrix_sim", "d_values": [4],
                                  "k_values": [1], "n_values": [10],
                                  "fidelity": True}))
    proc = _run("simulate-matrix", "--config", str(config),
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "unknown config keys" in proc.stderr


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
    ("simulate-matrix", {"iht": {"e": _NAN}}),
    ("simulate-matrix", {"iht": {"t0": _INF}}),
    ("simulate-sparse", {"sparse_estimator": {"t0": _NAN}}),
    ("simulate-sparse", {"sparse_estimator": {"upsilon": _INF}}),
    ("simulate-matrix", {"noise_std": _NAN}),
    ("simulate-matrix", {"noise_std": _INF}),
    ("simulate-quantum", {"t_factors": [_INF]}),
    ("simulate-matrix", {"replicates": True}),
    ("simulate-matrix", {"seed": True}),
    ("simulate-matrix", {"d_values": [True]}),
    ("simulate-matrix", {"iht": {"max_iters": True}}),
    ("simulate-sparse", {"sparse_estimator": {"k_cap": True}}),
], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
def test_non_finite_number_or_bool_for_an_int_exits_2(tmp_path, capsys, command, override):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**_TINY[command], **override}))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_mode_mismatch_exits_2(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "sparse", "p_values": [10],
                                  "k_values": [1], "n_values": [50]}))
    proc = _run("simulate-matrix", "--config", str(config),
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "does not match subcommand" in proc.stderr


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
    monkeypatch.setattr(iht, "schedule_iteration_bound", lambda t0, ups, rho: 0.0)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "mode": "matrix_sim", "replicates": 1, "seed": 1,
        "d_values": [6], "k_values": [1], "n_values": [40],
        "iht": {"upsilon": 0.05, "t0": 2.0},
    }))
    code = main(["simulate-matrix", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "stopping bound violated" in capsys.readouterr().err


def test_package_import_pulls_in_neither_scipy_nor_the_process_pool():
    probe = ("import sys, lowrank_iht; "
             "print(sorted(m for m in ('scipy', 'concurrent.futures.process') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

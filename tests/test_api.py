"""The package's public surface.

``lowrank_iht`` holds the estimator and what its command line, demos and
benchmark call. Reference implementations that only tests use live in
``tests/_oracles.py`` and must not reappear in the package.
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import types

import numpy as np
import pytest

import lowrank_iht
from lowrank_iht.cli import main
from lowrank_iht.experiments import compute_metrics
from lowrank_iht.inference import confidence_intervals
from lowrank_iht.iht import (
    IhtConfig,
    IhtState,
    run_iht,
    schedule_iteration_bound,
    stopping_check,
    threshold_step,
    upsilon_r,
)
from lowrank_iht.linalg import SvdFactors, hard_threshold_entries, hard_threshold_singular, svd
from lowrank_iht.quantum import (
    TomographyDataset,
    gen_density_matrix,
    gen_random_settings,
    outcome_table,
    simulate_dataset,
)
from lowrank_iht.sparse import (
    Decorrelator,
    SparseConfig,
    SparseInstance,
    build_decorrelator,
    gen_sparse_instance,
    largest_feasible_k,
    sparse_confidence_intervals,
)
from lowrank_iht.trace_model import (
    DesignBatch,
    Observations,
    adjoint_apply,
    apply_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    simulate_observations,
)

import _oracles
from _oracles import sample_outcomes

MODULES = sorted(info.name for info in pkgutil.iter_modules(lowrank_iht.__path__)
                 if info.name != "__main__")

# every name the package exports, so a removal shows which names left
EXPORTED = {
    "AssumptionViolationError", "ConfigError", "Decorrelator", "DesignBatch",
    "EntrywiseResult", "ExperimentConfig", "IhtConfig", "IhtState", "IterationRecord",
    "Observations", "SparseConfig", "SparseInstance",
    "StoppingBoundError", "SvdConvergenceError", "SvdFactors", "TomographyDataset",
    "adjoint_apply", "apply_design", "build_decorrelator", "compute_metrics",
    "confidence_intervals", "decomposition_terms", "entry_scale_matrix",
    "entrywise_inf_norm", "gen_basis_design", "gen_density_matrix",
    "gen_gaussian_design", "gen_low_rank_theta", "gen_random_settings",
    "gen_sparse_instance", "hard_threshold_entries", "hard_threshold_singular",
    "largest_feasible_k", "run_experiment", "run_iht",
    "schedule_iteration_bound", "simulate_dataset",
    "simulate_observations", "sparse_confidence_intervals", "sparse_iht_run",
    "stopping_check", "svd", "threshold_step", "upsilon_r",
}

# names the package must not define, by module: test-only references that
# live in tests/_oracles.py (among them the per-setting tomography path and
# the stand-alone debiasers, whose estimates the interval calls return), the
# unused trace writer, the residual scales that the interval calls now form
# from their own residual, the covariance build_decorrelator forms inline,
# parity, which only tests read (the package forms parities through a table),
# the tomography manifest writer and reader, which nothing else called, and
# the settings wrapper, whose codes an (N, m) integer array holds
REMOVED = {
    "quantum": ("pauli_matrix", "eigenprojector", "setting_projector", "marginalize",
                "OutcomeBatch", "sample_outcomes", "build_rescaled_dataset", "parity",
                "save_dataset", "load_dataset", "PauliSetting"),
    "linalg": ("restricted_singular_bound", "restricted_singular_bound_check",
               "schatten_norm"),
    "sparse": ("estimate_r_k", "sparse_decomposition_terms", "sparse_sigma",
               "desparsify", "empirical_covariance"),
    "iht": ("write_trace_csv", "empirical_sigma"),
    "trace_model": ("RipEstimate", "estimate_rip_constant", "isometry_deviation",
                    "IMAG_RESIDUE_TOL"),
    "inference": ("debias",),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"lowrank_iht.{name}")
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []


def test_every_package_name_is_in_its_modules_all():
    exported = {name: value for name, value in vars(lowrank_iht).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == EXPORTED
    for name, value in exported.items():
        module = importlib.import_module(value.__module__)
        assert name in module.__all__, f"{name} is not in {module.__name__}.__all__"
    # and the other way: a public module's __all__ names only package exports,
    # so those lists are the one declaration of the public API
    for name in MODULES:
        if not name.startswith("_"):
            module = importlib.import_module(f"lowrank_iht.{name}")
            extra = set(getattr(module, "__all__", ())) - EXPORTED
            assert not extra, f"{sorted(extra)} in {name}.__all__ are not package exports"


@pytest.mark.parametrize("module_name", list(REMOVED))
def test_removed_names_are_gone(module_name):
    module = importlib.import_module(f"lowrank_iht.{module_name}")
    for name in REMOVED[module_name]:
        assert not hasattr(lowrank_iht, name)
        assert not hasattr(module, name)
        assert name not in module.__all__


def test_no_oracle_is_defined_by_the_package():
    # a reference that moves into tests/_oracles.py leaves every package
    # module, private ones included, so it needs no REMOVED entry above
    oracles = sorted(name for name, value in vars(_oracles).items()
                     if (inspect.isclass(value) or inspect.isfunction(value))
                     and value.__module__ == _oracles.__name__)
    assert {"outcome_distribution", "row_program_decorrelator", "_solve_row"} <= set(oracles)
    for module_name in MODULES:
        module = importlib.import_module(f"lowrank_iht.{module_name}")
        assert [name for name in oracles if name in vars(module)] == [], module_name
    assert [name for name in oracles if hasattr(lowrank_iht, name)] == []


def test_build_decorrelator_takes_only_x():
    # the identity is the one decorrelator the package builds; the row
    # program is a test oracle, so neither its strategy nor its mu is read
    x = gen_sparse_instance(60, 8, 2, 1.0, 5).x
    assert list(inspect.signature(build_decorrelator).parameters) == ["x"]
    with pytest.raises(TypeError):
        build_decorrelator(x, "row_program")
    with pytest.raises(TypeError):
        build_decorrelator(x, mu=0.1)


def _sparse_decorrelator():
    return build_decorrelator(gen_sparse_instance(60, 8, 2, 1.0, 5).x)


def _matrix_fit():
    batch = gen_gaussian_design(60, 3, 1)
    return batch, simulate_observations(batch, np.eye(3), 1.0, 2), np.eye(3)


def _sparse_fit():
    inst = gen_sparse_instance(60, 8, 2, 1.0, 5)
    return np.zeros(8), inst, build_decorrelator(inst.x)


def _one_qubit_dataset(y=(0.0, 0.0)):
    return TomographyDataset(settings=[[3]], repetitions=1, y=y)


def _simulate_one_qubit(seed):
    return simulate_dataset(gen_density_matrix(2, 1, 0), 2, 3, seed)


@pytest.mark.parametrize("call, name", [
    (lambda: gen_density_matrix(4.0, 1, 0), "d"),
    (lambda: gen_density_matrix(True, 1, 0), "d"),
    (lambda: gen_density_matrix(4, 1.0, 0), "k"),
    (lambda: gen_random_settings(2.0, 2, 0), "count"),
    (lambda: gen_random_settings(2, "2", 0), "m"),
    (lambda: gen_random_settings(2, 0, 0), "m"),
    (lambda: gen_sparse_instance(40.0, 10, 2, 1.0, 0), "n"),
    (lambda: gen_sparse_instance(40, 10.0, 2, 1.0, 0), "p"),
    (lambda: gen_sparse_instance(40, 10, 2.5, 1.0, 0), "k"),
    (lambda: largest_feasible_k(_sparse_decorrelator(), True), "k_max"),
    (lambda: largest_feasible_k(_sparse_decorrelator(), 3.0), "k_max"),
    (lambda: largest_feasible_k(_sparse_decorrelator(), 0), "k_max"),
    (lambda: gen_sparse_instance(40, 10, 2, True, 0), "noise_std"),
    (lambda: gen_sparse_instance(40, 10, 2, "1.0", 0), "noise_std"),
    (lambda: confidence_intervals(*_matrix_fit(), sigma=True), "sigma"),
    (lambda: confidence_intervals(*_matrix_fit(), level="0.9"), "level"),
    (lambda: sparse_confidence_intervals(*_sparse_fit(), sigma=True), "sigma"),
    (lambda: sparse_confidence_intervals(*_sparse_fit(), level="0.9"), "level"),
    (lambda: upsilon_r(True, 4, 40), "sigma"),
    (lambda: upsilon_r("1.0", 4, 40), "sigma"),
    (lambda: upsilon_r(1.0, 4.0, 40), "d"),
    (lambda: upsilon_r(1.0, 4, True), "n"),
    (lambda: threshold_step(True, 0.0), "t_prev"),
    (lambda: threshold_step(np.nan, 0.0), "t_prev"),
    (lambda: threshold_step(1.0, "1.0"), "upsilon"),
    (lambda: schedule_iteration_bound(True, 1.0), "t0"),
    (lambda: schedule_iteration_bound(np.inf, 1.0), "t0"),
    (lambda: schedule_iteration_bound(1.0, "1.0"), "upsilon"),
    (lambda: stopping_check(1.0, True), "upsilon"),
    (lambda: stopping_check(1.0, np.nan), "upsilon"),
    (lambda: stopping_check(np.nan, 1.0), "t_r"),
    (lambda: hard_threshold_entries(np.ones(3), True), "threshold"),
    (lambda: hard_threshold_entries(np.ones(3), "1.0"), "threshold"),
    (lambda: hard_threshold_entries(np.ones(3), np.inf), "threshold"),
    (lambda: hard_threshold_singular(np.eye(3), True), "threshold"),
    (lambda: hard_threshold_singular(np.eye(3), "1.0"), "threshold"),
    (lambda: hard_threshold_singular(np.eye(3), np.inf), "threshold"),
    (lambda: outcome_table(True), "m"),
    (lambda: outcome_table(2.0), "m"),
    (lambda: _simulate_one_qubit(True), "seed"),
    (lambda: _simulate_one_qubit(1.5), "seed"),
    (lambda: _simulate_one_qubit("3"), "seed"),
    (lambda: _simulate_one_qubit(np.random.default_rng(3)), "seed"),
], ids=["density-d-float", "density-d-bool", "density-k-float", "settings-count-float",
        "settings-m-str", "settings-m-zero", "sparse-n-float", "sparse-p-float",
        "sparse-k-float", "feasible-k-bool", "feasible-k-float", "feasible-k-zero",
        "sparse-noise-bool", "sparse-noise-str", "intervals-sigma-bool",
        "intervals-level-str", "sparse-intervals-sigma-bool", "sparse-intervals-level-str",
        "upsilon-sigma-bool", "upsilon-sigma-str", "upsilon-d-float", "upsilon-n-bool",
        "step-t-bool", "step-t-nan", "step-upsilon-str",
        "bound-t0-bool", "bound-t0-inf", "bound-upsilon-str",
        "stop-upsilon-bool", "stop-upsilon-nan", "stop-t-nan",
        "entries-threshold-bool", "entries-threshold-str", "entries-threshold-inf",
        "singular-threshold-bool", "singular-threshold-str", "singular-threshold-inf",
        "outcome-table-m-bool", "outcome-table-m-float",
        "simulate-seed-bool", "simulate-seed-float", "simulate-seed-str",
        "simulate-seed-generator"])
def test_generators_refuse_a_non_integer_size_naming_it(call, name):
    # numpy would raise a TypeError naming no argument, or quietly accept a
    # bool; every generator checks its sizes as gen_gaussian_design does, and
    # its noise scale, like the interval calls' sigma and level, as a float;
    # the schedule helpers and the stopping rule, thresholds and seeds
    # likewise
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


_NAN_3X3 = np.full((3, 3), np.nan)


@pytest.mark.parametrize("call, name", [
    (lambda: Decorrelator(np.eye(3), _NAN_3X3), "sigma_hat"),
    (lambda: hard_threshold_entries([np.nan, 2.0], 1.0), "u"),
    (lambda: apply_design(_matrix_fit()[0], _NAN_3X3), "a"),
    (lambda: Observations(values=[0.0, 1.0, 2.0], noise=[0.0, np.nan, 1.0]), "noise"),
    (lambda: SparseInstance(x=np.ones((2, 2)), y=np.zeros(2), theta_truth=[np.nan, 1.0]),
     "theta_truth"),
    (lambda: _one_qubit_dataset(y=[np.nan, 1.0]), "y"),
    (lambda: simulate_dataset(np.full((2, 2), np.nan), 1, 1, 0), "theta"),
    (lambda: simulate_dataset(np.full((2, 2), np.nan), 2, 3, 0), "theta"),
    (lambda: confidence_intervals(*_matrix_fit()[:2], _NAN_3X3), "theta_hat"),
    (lambda: compute_metrics(np.zeros((3, 3)), _NAN_3X3), "theta"),
    (lambda: build_decorrelator(np.ones(5)), "x"),
    (lambda: apply_design(_matrix_fit()[0], np.eye(2)), "a"),
    (lambda: adjoint_apply(_matrix_fit()[0], np.ones(5)), "v"),
    (lambda: run_iht(_matrix_fit()[0], np.ones(5)), "y"),
    (lambda: confidence_intervals(*_matrix_fit()).covers(np.zeros(2)), "truth"),
    (lambda: compute_metrics(np.zeros((2, 2)), np.zeros((3, 3))), "theta"),
    (lambda: svd(np.ones(3)), "a"),
    (lambda: sparse_confidence_intervals(np.zeros(3), *_sparse_fit()[1:]), "estimate"),
    (lambda: SparseInstance(x=np.ones((3, 2)), y=np.zeros(2)), "y"),
    (lambda: Decorrelator(np.eye(3), np.eye(4)), "sigma_hat"),
    (lambda: _one_qubit_dataset(y=np.zeros(3)), "y"),
    (lambda: Observations(values=[[1.0]]), "values"),
    (lambda: Observations(values=["1.0", "2.0"]), "values"),
    (lambda: Observations(values=[True, False]), "values"),
    (lambda: Observations(values=[1j, 2.0]), "values"),
    (lambda: DesignBatch(np.full((2, 2, 2), "1")), "matrices"),
    (lambda: DesignBatch(np.ones((2, 2, 2), dtype=bool)), "matrices"),
    (lambda: SparseInstance(x=np.full((2, 2), "1"), y=np.zeros(2)), "x"),
    (lambda: build_decorrelator(np.ones((4, 2), dtype=bool)), "x"),
    (lambda: hard_threshold_entries(np.array(["1", "2"]), 1.0), "u"),
    (lambda: apply_design(_matrix_fit()[0], np.eye(3, dtype=bool)), "a"),
    (lambda: adjoint_apply(_matrix_fit()[0], np.full(60, "1")), "v"),
    (lambda: simulate_dataset(np.array([["1", "0"], ["0", "0"]]), 1, 1, 0), "theta"),
    (lambda: Observations(values=[1.0, [2.0, 3.0]]), "values"),
    (lambda: DesignBatch([[[1.0]], [[1.0, 2.0]]]), "matrices"),
    (lambda: SparseInstance(x=[[1.0, 2.0], [3.0]], y=np.zeros(2)), "x"),
    (lambda: hard_threshold_entries([[1.0], [1.0, 2.0]], 1.0), "u"),
    (lambda: DesignBatch(np.zeros((3, 0, 0))), "matrices"),
    (lambda: SparseInstance(x=np.zeros((0, 3)), y=np.zeros(0)), "x"),
    (lambda: SparseInstance(x=np.zeros((5, 0)), y=np.zeros(5)), "x"),
    (lambda: Decorrelator(np.zeros((0, 0)), np.zeros((0, 0))), "v"),
], ids=["decorrelator-sigma-nan", "entries-nan", "apply-design-nan", "observations-noise-nan",
        "sparse-truth-nan", "dataset-y-nan", "density-nan", "simulate-density-nan",
        "intervals-estimate-nan", "metrics-theta-nan", "decorrelator-x-vector",
        "apply-design-shape", "adjoint-shape", "run-iht-y-shape", "covers-shape",
        "metrics-theta-shape", "svd-vector", "sparse-intervals-shape", "sparse-y-shape",
        "decorrelator-sigma-shape", "dataset-y-shape", "observations-matrix",
        "observations-str", "observations-bool", "observations-complex", "design-str",
        "design-bool", "sparse-x-str", "decorrelator-x-bool", "entries-str",
        "apply-design-bool", "adjoint-str", "density-str", "observations-ragged",
        "design-ragged", "sparse-x-ragged", "entries-ragged", "design-d-zero",
        "sparse-n-zero", "sparse-p-zero", "decorrelator-p-zero"])
def test_every_array_input_is_refused_naming_it(call, name):
    # every array argument is checked by _checks.check_array: NaNs used to be
    # zeroed, passed on or reported under another name, strings were parsed
    # and bools read as 0 and 1, and each module worded its shape refusal
    # its own way; a ragged sequence raised numpy's own message, naming no
    # argument; an empty holder died later in a ZeroDivisionError, a NaN
    # sigma or a refused k_max the caller never passed
    with pytest.raises(ValueError, match=rf"^{name} must (have shape \(|be finite$|"
                                         r"hold (real )?numbers, got (dtype |a ragged sequence$)|"
                                         r"not be empty, got shape \()"):
        call()


@pytest.mark.parametrize("settings, message", [
    ([[1.0]], "settings must hold integers, got dtype float64"),
    ([[1.7, 2.0]], "settings must hold integers, got dtype float64"),
    ([[True]], "settings must hold numbers, got dtype bool"),
    ([["3"]], "settings must hold numbers, got dtype <U1"),
    ([[1, -1]], r"settings must be in \[0, 4\), got -1"),
    ([[4]], r"settings must be in \[0, 4\), got 4"),
    (np.zeros((0, 1), dtype=np.int64), r"settings must not be empty, got shape \(0, 1\)"),
    (np.zeros((2, 0), dtype=np.int64), r"settings must not be empty, got shape \(2, 0\)"),
    ([1, 2], r"settings must have shape \(\*, \*\), got \(2,\)"),
    ([[1], [2]], r"y must have shape \(4,\), got \(2,\)"),
], ids=["float", "float-fraction", "bool", "str", "code-negative", "code-four",
        "no-settings", "no-qubits", "one-dimensional", "rows-differ-from-y"])
def test_dataset_settings_are_a_table_of_qubit_codes(settings, message):
    # a float code is refused rather than truncated, as check_int refuses a
    # float scalar; codes lie in [0, 4), and the table's N * 2^m rows must be
    # as many as y's
    with pytest.raises(ValueError, match=f"^{message}$"):
        TomographyDataset(settings=settings, repetitions=1, y=[0.0, 0.0])


def test_interval_calls_keep_their_checked_floats():
    # sigma and level come back as the floats the calls checked, not as the
    # int or numpy scalar passed in
    for res in (confidence_intervals(*_matrix_fit(), sigma=2, level=np.float64(0.9)),
                sparse_confidence_intervals(*_sparse_fit(), sigma=2, level=np.float64(0.9))):
        assert type(res.sigma) is float and res.sigma == 2.0
        assert type(res.level) is float and res.level == 0.9


def test_generators_keep_their_range_messages_and_take_numpy_integers():
    with pytest.raises(ValueError, match="need 1 <= k <= d, got k=0, d=4"):
        gen_density_matrix(4, 0, 0)
    with pytest.raises(ValueError, match="count must be at least 1"):
        gen_random_settings(0, 2, 0)
    with pytest.raises(ValueError, match="need 1 <= k <= p, got k=11"):
        gen_sparse_instance(40, 10, 11, 1.0, 0)
    assert (gen_density_matrix(np.int64(4), np.int64(2), 3).tobytes()
            == gen_density_matrix(4, 2, 3).tobytes())
    assert (gen_random_settings(np.int64(3), np.int64(2), 1).tobytes()
            == gen_random_settings(3, 2, 1).tobytes())
    assert (gen_sparse_instance(np.int64(40), np.int64(10), np.int64(2), 1.0, 0).y.tobytes()
            == gen_sparse_instance(40, 10, 2, 1.0, 0).y.tobytes())
    dec = _sparse_decorrelator()
    assert largest_feasible_k(dec, np.int64(8)) == largest_feasible_k(dec, 8)


def test_run_iht_takes_no_rip_probe():
    # a Monte-Carlo probe only bounds the restricted isometry constant from
    # below, so the estimator neither takes one nor reports a verdict from it
    assert "rip" not in inspect.signature(run_iht).parameters
    assert "rho_condition_ok" not in {f.name for f in dataclasses.fields(IhtState)}


def test_estimator_knobs_and_signatures_are_pinned():
    # the stopping margin e = 0.1, the contraction rho = 1/2, the iteration
    # cap ceil(10 ln n), the noise quantile z_0.90 and the sparse delta = 0.05
    # are constants: e = 0.1 is what the iteration bound's "10" is derived
    # for, and no run ever set the others
    assert [f.name for f in dataclasses.fields(IhtConfig)] == ["upsilon", "t0"]
    assert [f.name for f in dataclasses.fields(SparseConfig)] == ["t0", "k_cap", "upsilon"]
    assert list(inspect.signature(upsilon_r).parameters) == ["sigma", "d", "n"]
    assert list(inspect.signature(threshold_step).parameters) == ["t_prev", "upsilon"]
    assert list(inspect.signature(stopping_check).parameters) == ["t_r", "upsilon"]
    assert (list(inspect.signature(schedule_iteration_bound).parameters)
            == ["t0", "upsilon"])
    assert list(inspect.signature(SvdFactors.rank).parameters) == ["self"]


@pytest.mark.parametrize("command, block, key", [
    ("simulate-matrix", "iht", "e"),
    ("simulate-matrix", "iht", "upsilon_quantile"),
    ("simulate-matrix", "iht", "rho"),
    ("simulate-matrix", "iht", "max_iters"),
    ("simulate-sparse", "sparse_estimator", "delta"),
])
def test_a_removed_knob_exits_2_naming_it(tmp_path, capsys, command, block, key):
    cell = ({"d_values": [4], "k_values": [1], "n_values": [40]} if command == "simulate-matrix"
            else {"p_values": [10], "k_values": [1], "n_values": [60]})
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"replicates": 1, **cell, block: {key: 0.1}}))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"argument '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _array_holders():
    # (name, build) with build() returning a fresh object of that class from
    # fixed inputs, so two calls give equal contents in distinct objects;
    # OutcomeBatch is the per-setting reference path's, in tests/_oracles.py
    def design():
        return gen_gaussian_design(60, 3, 1)

    def observations():
        return simulate_observations(design(), gen_low_rank_theta(3, 1, 2), 0.5, 3)

    def state():
        return run_iht(design(), observations())[1]

    def intervals():
        batch, obs = design(), observations()
        estimate, st = run_iht(batch, obs)
        return confidence_intervals(batch, obs, estimate, state=st)

    theta = gen_density_matrix(4, 1, 4)
    return {
        "DesignBatch": design,
        "Observations": observations,
        "IhtState": state,
        "SvdFactors": lambda: svd(np.arange(9.0).reshape(3, 3)),
        "EntrywiseResult": intervals,
        "Decorrelator": lambda: build_decorrelator(np.eye(4)),
        "SparseInstance": lambda: gen_sparse_instance(20, 5, 2, 0.5, 6),
        "OutcomeBatch": lambda: sample_outcomes((1, 3), theta, 5, 7),
        "TomographyDataset": lambda: simulate_dataset(theta, 3, 5, 8),
    }


@pytest.mark.parametrize("name", list(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # a generated __eq__ over ndarray fields raises "truth value of an array
    # is ambiguous"; these classes compare, and hash, as objects
    build = _array_holders()[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, a, b}) == 2


@pytest.mark.parametrize("name", list(_array_holders()))
def test_array_holders_keep_read_only_arrays(name):
    # every array a holder keeps goes through _checks.read_only
    holder = _array_holders()[name]()
    arrays = {f.name: getattr(holder, f.name) for f in dataclasses.fields(holder)
              if isinstance(getattr(holder, f.name), np.ndarray)}
    assert arrays
    assert [key for key, arr in arrays.items() if arr.flags.writeable] == []

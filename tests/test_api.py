"""The package's public surface.

``lowrank_iht`` holds the estimator and what its command line, demos and
benchmark call. Reference implementations that only tests use live in
``tests/_oracles.py`` and must not reappear in the package.
"""

import importlib
import pkgutil
import types

import pytest

import lowrank_iht

MODULES = sorted(info.name for info in pkgutil.iter_modules(lowrank_iht.__path__)
                 if info.name != "__main__")

# names the package must not define, by module: test-only references that
# live in tests/_oracles.py, and the unused trace writer
REMOVED = {
    "quantum": ("pauli_matrix", "eigenprojector", "setting_projector", "marginalize"),
    "linalg": ("restricted_singular_bound", "restricted_singular_bound_check"),
    "sparse": ("estimate_r_k", "sparse_decomposition_terms"),
    "iht": ("write_trace_csv",),
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
    assert len(exported) == 58
    for name, value in exported.items():
        module = importlib.import_module(value.__module__)
        assert name in module.__all__, f"{name} is not in {module.__name__}.__all__"


@pytest.mark.parametrize("module_name", list(REMOVED))
def test_removed_names_are_gone(module_name):
    module = importlib.import_module(f"lowrank_iht.{module_name}")
    for name in REMOVED[module_name]:
        assert not hasattr(lowrank_iht, name)
        assert not hasattr(module, name)
        assert name not in module.__all__

"""Self-time arithmetic, wrapper installation and absent layers."""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from metrics import PER_LAYER, per_layer  # noqa: E402
from tracing import Span, Tracer, has_ancestor, layer_totals, self_times, target  # noqa: E402


def _tree():
    # op 1: a [0, 10] -> b [1, 4] -> c [2, 3]; a -> d [5, 7]
    # op 2: a [20, 24] -> d [21, 22]
    return [
        Span("a", 0.0, 10.0, None, 1),
        Span("b", 1.0, 4.0, 0, 1, {"n": 3}),
        Span("c", 2.0, 3.0, 1, 1),
        Span("d", 5.0, 7.0, 0, 1),
        Span("a", 20.0, 24.0, None, 2),
        Span("d", 21.0, 22.0, 4, 2),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [5.0, 2.0, 1.0, 2.0, 3.0, 1.0]


def test_layer_totals_are_per_op_means():
    totals = layer_totals(_tree(), [1, 2])
    assert totals["a.self_s"] == (5.0 + 3.0) / 2
    assert totals["d.self_s"] == (2.0 + 1.0) / 2
    assert totals["d.calls"] == 1.0
    assert totals["b.n"] == 1.5
    only_first = layer_totals(_tree(), [1])
    assert only_first["a.self_s"] == 5.0 and only_first["b.calls"] == 1


def test_has_ancestor():
    spans = _tree()
    assert has_ancestor(spans, 2, "a") and has_ancestor(spans, 2, "b")
    assert not has_ancestor(spans, 3, "b") and not has_ancestor(spans, 0, "a")


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec(
        "import time\n"
        "def leaf():\n"
        "    time.sleep(0.002)\n"
        "    return 1\n"
        "def outer():\n"
        "    return leaf() + leaf()\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return leaf()\n",
        core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf, user.outer = core.leaf, core.outer  # as "from .core import ..."
    for name, module in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_wrappers_reach_every_caller_and_missing_functions_are_absent(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original_leaf = core.leaf
    tracer = Tracer([target("core.leaf", lambda args, result: {"ones": result}),
                     target("core.outer"),
                     target("core.Box.method", name="core.method"),
                     target("core.removed"),
                     target("gone.fn")], package="fakepkg")
    with tracer:
        assert user.leaf is not original_leaf and core.leaf is user.leaf
        user.leaf()  # op None: calls through, records nothing
        assert tracer.spans == []
        tracer.op = 7
        assert user.outer() == 2
        assert core.Box().method() == 1
        tracer.op = None
    assert core.leaf is original_leaf and user.leaf is original_leaf
    assert tracer.absent == ["core.removed", "gone.fn"]
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("core.outer", None, 7), ("core.leaf", 0, 7), ("core.leaf", 0, 7),
                     ("core.method", None, 7), ("core.leaf", 3, 7)]
    selfs = self_times(tracer.spans)
    outer = tracer.spans[0]
    assert abs(selfs[0] - (outer.duration - tracer.spans[1].duration
                           - tracer.spans[2].duration)) < 1e-12
    assert all(s >= 0 for s in selfs)
    totals = layer_totals(tracer.spans, [7])
    assert totals["core.leaf.calls"] == 3 and totals["core.leaf.ones"] == 3


def test_per_layer_reports_every_metric_with_absent_layers_as_zero():
    spans = [Span("iht.run_iht", 0.0, 1.0, None, 1,
                  {"iterations": 2, "converged": 1, "runs": 1}),
             Span("trace_model.apply_design", 0.1, 0.2, 0, 1, {"design_bytes": 4_000_000}),
             Span("trace_model.apply_design", 0.3, 0.4, 0, 1, {"design_bytes": 4_000_000}),
             Span("trace_model.apply_design", 0.5, 0.6, 0, 1, {"design_bytes": 4_000_000}),
             Span("trace_model.apply_design", 0.7, 0.8, 0, 1, {"design_bytes": 4_000_000})]
    values = per_layer(spans, {1: 1.5}, [1], ["linalg.svd"], 0.9, 1.4, 0.0)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["linalg.svd.self_s"] == 0.0 and values["linalg.svd.calls"] == 0
    assert values["trace.absent_layers"] == 1
    assert values["iht.apply_per_iteration"] == 2.0
    assert values["iht.converged_share"] == 1.0
    assert values["trace_model.design_mb"] == 4.0
    assert abs(values["trace_model.design_gb_per_s_computed"] - 0.04) < 1e-9
    assert abs(values["iht.run_iht.self_s"] - 0.6) < 1e-9
    assert abs(values["op.unwrapped_self_s"] - 0.5) < 1e-9
    assert abs(values["trace.overhead_s"] - 0.1) < 1e-9

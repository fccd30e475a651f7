"""The span wrappers: digest-neutral, fully undone, self time exact."""

import sys

import pytest

import spans
from inputs import core_input
from repro.core.api import DynamicMST
from spans import Tracer


def _tiny_digest() -> str:
    graph, stream = core_input(2, 2, 80, 240, 12, 3, 0.5)
    dm = DynamicMST.build(graph, 4, rng=2, init="distributed")
    for batch in stream:
        dm.apply_batch(batch)
    dm.check()
    return dm.net.ledger.digest()


def _bindings():
    """Every attribute of every loaded repro module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_wrapped_run_charges_the_same_ledger():
    plain = _tiny_digest()
    with Tracer() as tracer:
        traced = _tiny_digest()
    assert traced == plain
    assert tracer.missing == []
    assert tracer.calls["core.build"] == 1
    assert tracer.calls["core.apply_batch"] == 3
    assert tracer.calls["sim.superstep_plane"] + tracer.calls["sim.superstep"] > 0
    assert all(v >= 0 for v in tracer.self_s.values())


def test_uninstall_restores_every_original_object():
    tracer = Tracer()
    tracer.install()  # imports every target module first
    tracer.uninstall()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    from repro.comm import rerouting
    from repro.core import batch_addition

    original = before[("repro.comm.rerouting", "scheduled_broadcasts")]
    assert batch_addition.scheduled_broadcasts is rerouting.scheduled_broadcasts
    assert rerouting.scheduled_broadcasts is not original
    tracer.uninstall()
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_missing_target_is_reported_not_raised(monkeypatch):
    targets = spans.TARGETS + (("core.build", "repro.core.api", "DynamicMST.gone"),
                               ("core.build", "repro.no_such_module", "f"))
    monkeypatch.setattr(spans, "TARGETS", targets)
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["repro.core.api:DynamicMST.gone", "repro.no_such_module:f"]


def test_self_time_excludes_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    wrapped_inner = tracer._wrap("comm.broadcasts", inner)

    def outer():
        now[0] += 1.0
        wrapped_inner()
        now[0] += 3.0

    tracer._wrap("core.apply_batch", outer)()
    assert tracer.self_s["core.apply_batch"] == pytest.approx(4.0)
    assert tracer.self_s["comm.broadcasts"] == pytest.approx(2.0)
    assert tracer.total_s() == pytest.approx(6.0)
    report = tracer.report(wall_s=12.0)
    assert report["core.apply_batch.share"] == pytest.approx(1 / 3)
    assert report["comm.broadcasts.calls"] == 1

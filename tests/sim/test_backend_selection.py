"""Backend selection: registry, precedence, and the environment layer.

A backend name is the only engine selector — an explicit ``backend=``
argument, then ``REPRO_BACKEND`` — and each accepts exactly
``reference`` or ``inproc-columnar``.  The engine that runs must always
be the engine that is named and reported.
"""

import inspect
import io
import json

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph
from repro.mpc import MPCDynamicMST
from repro.perf import config
from repro.sim.executor import (
    COLUMNAR,
    REFERENCE,
    backend_from_env,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.sim import KMachineNetwork
from repro.trace.recorder import TraceRecorder


@pytest.fixture(autouse=True)
def _no_ambient_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


class TestRegistry:
    def test_canonical_names(self):
        assert backend_names() == ["reference", "inproc-columnar"]

    @pytest.mark.parametrize(
        "name,canonical",
        [
            ("reference", "reference"),
            ("inproc-columnar", "inproc-columnar"),
        ],
    )
    def test_aliases(self, name, canonical):
        # A backend's canonical name is its only spelling.
        assert get_backend(name).name == canonical

    @pytest.mark.parametrize("name", ["scalar", "SCALAR", "columnar", "Reference"])
    def test_former_aliases_are_rejected(self, name):
        with pytest.raises(ValueError) as exc:
            get_backend(name)
        assert "reference, inproc-columnar" in str(exc.value)

    def test_instances_are_cached(self):
        assert get_backend("reference") is REFERENCE
        assert get_backend("inproc-columnar") is COLUMNAR

    def test_unknown_backend_message_names_the_menu(self):
        with pytest.raises(ValueError) as exc:
            get_backend("gpu")
        assert str(exc.value) == (
            "unknown execution backend 'gpu' "
            "(known backends: reference, inproc-columnar)"
        )

    def test_parallel_is_no_longer_a_backend(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("parallel")
        monkeypatch.setenv("REPRO_BACKEND", "parallel")
        with pytest.raises(ValueError, match="unknown execution backend"):
            backend_from_env()

    def test_fast_flags(self):
        assert get_backend("reference").fast is False
        assert get_backend("inproc-columnar").fast is True


class TestPrecedence:
    def test_explicit_backend_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inproc-columnar")
        assert resolve_backend(backend="reference").name == "reference"

    def test_env_is_the_last_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert resolve_backend().name == "reference"

    def test_nothing_pinned_defers_to_ambient(self):
        assert resolve_backend() is None

    def test_env_default_backend_follows_fast_path(self, monkeypatch):
        assert backend_from_env().name == "inproc-columnar"
        assert config.fast_path_enabled(KMachineNetwork(2)) is True
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert backend_from_env().name == "reference"
        assert config.fast_path_enabled(KMachineNetwork(2)) is False

    def test_build_pins_the_instance(self, monkeypatch):
        # The engine is fixed at build: ``backend=None`` resolves
        # REPRO_BACKEND once, and the instance keeps it afterwards.
        g = random_weighted_graph(16, 30, np.random.default_rng(0))
        for backend, fast in (("inproc-columnar", True), ("reference", False),
                              (None, True)):
            dm = DynamicMST.build(g, 4, rng=np.random.default_rng(0),
                                  backend=backend)
            assert dm.fast is fast
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert dm.fast is True
        assert DynamicMST.build(g, 4, rng=np.random.default_rng(0)).fast is False

    @pytest.mark.parametrize("facade", [DynamicMST, MPCDynamicMST])
    def test_build_takes_a_backend_name_only(self, facade):
        params = inspect.signature(facade.build).parameters
        assert "backend" in params and "trace" in params
        assert "fast" not in params
        assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


class TestEnvironmentLayer:
    def test_override_outranks_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        net = KMachineNetwork(2, fast=get_backend("inproc-columnar").fast)
        assert config.fast_path_enabled(net) is True
        assert config.fast_path_enabled(KMachineNetwork(2)) is False


def _structural_engines(backend):
    """Engines of every structural batch in a small traced run, and its digest."""
    buf = io.StringIO()
    rec = TraceRecorder(buf)
    g = random_weighted_graph(40, 100, rng=0)
    dm = DynamicMST.build(g, 4, rng=0, init="free", trace=rec, backend=backend)
    for batch in churn_stream(g.copy(), 8, 4, rng=1):
        dm.apply_batch(batch)
    dm.detach_trace()
    rec.close()
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    engines = [e["engine"] for e in events
               if e["type"] == "engine" and e["feature"] == "structural_batch"]
    return engines, dm.net.ledger.digest()


def test_the_named_engine_runs_at_any_size():
    # n=40, k=4, batches of 8: far below any packing crossover, and the
    # columnar engine still applies every structural batch it is named for.
    col_engines, col_digest = _structural_engines("inproc-columnar")
    ref_engines, ref_digest = _structural_engines("reference")
    assert col_engines and set(col_engines) == {"columnar"}
    assert ref_engines and set(ref_engines) == {"scalar"}
    assert len(col_engines) == len(ref_engines)
    assert col_digest == ref_digest
    assert col_digest.startswith("38bc40de10c7")

"""Backend selection: registry, precedence, and the environment layer.

The selection seam has an exact precedence order — explicit ``backend=``
argument, then ``REPRO_BACKEND``, then ``REPRO_FAST`` — and the engine
that runs must always be the engine that is reported.
"""

import numpy as np
import pytest

from repro.perf import config
from repro.sim.executor import (
    BACKEND_ALIASES,
    backend_from_env,
    backend_names,
    get_backend,
    resolve_backend,
)


@pytest.fixture(autouse=True)
def _no_ambient_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAST", raising=False)


class TestRegistry:
    def test_canonical_names(self):
        assert backend_names() == ["reference", "inproc-columnar"]

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("reference", "reference"),
            ("scalar", "reference"),
            ("SCALAR", "reference"),
            ("inproc-columnar", "inproc-columnar"),
            ("columnar", "inproc-columnar"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert get_backend(alias).name == canonical

    def test_instances_are_cached(self):
        assert get_backend("scalar") is get_backend("reference")

    def test_unknown_backend_message_names_the_menu(self):
        with pytest.raises(ValueError) as exc:
            get_backend("gpu")
        msg = str(exc.value)
        assert "unknown execution backend 'gpu'" in msg
        for alias in BACKEND_ALIASES:
            assert alias in msg

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
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        assert resolve_backend(backend="reference").name == "reference"

    def test_env_is_the_last_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert resolve_backend().name == "reference"

    def test_nothing_pinned_defers_to_ambient(self):
        assert resolve_backend() is None

    def test_env_default_backend_follows_fast_path(self, monkeypatch):
        assert backend_from_env().name == "inproc-columnar"
        monkeypatch.setenv("REPRO_FAST", "0")
        assert backend_from_env().name == "reference"
        assert config.fast_path_enabled() is False

    def test_build_pins_the_instance(self):
        from repro.core import DynamicMST
        from repro.graphs import random_weighted_graph

        g = random_weighted_graph(16, 30, np.random.default_rng(0))
        dm = DynamicMST.build(g, 4, rng=np.random.default_rng(0),
                              backend="columnar")
        assert dm.fast is True
        dm = DynamicMST.build(g, 4, rng=np.random.default_rng(0),
                              fast=True, backend="scalar")
        assert dm.fast is False


class TestEnvironmentLayer:
    """``REPRO_BACKEND`` outranks ``REPRO_FAST``, and the engine the fast
    path runs is the engine :func:`backend_from_env` reports."""

    @pytest.mark.parametrize(
        "backend,fast,expected",
        [
            ("inproc-columnar", "0", "inproc-columnar"),
            ("reference", "1", "reference"),
        ],
    )
    def test_repro_backend_beats_repro_fast(self, monkeypatch, backend,
                                            fast, expected):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        monkeypatch.setenv("REPRO_FAST", fast)
        reported = backend_from_env()
        assert reported.name == expected
        assert config.fast_path_enabled() is reported.fast

    def test_override_outranks_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        with config.override_fast_path(get_backend("columnar").fast):
            assert config.fast_path_enabled() is True
        assert config.fast_path_enabled() is False

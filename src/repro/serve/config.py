"""Daemon configuration: one dataclass, fully deterministic core recipe.

A :class:`ServeConfig` pins everything needed to rebuild the daemon's
core *exactly* — graph shape ``(n, m, seed)``, cluster size ``k``, init
mode, engine and execution backend — which is what makes the
determinism gate possible: :func:`repro.serve.reducer.offline_replay`
constructs a second core from the same config and replays the admitted
command log through a fresh :class:`~repro.stream.ingest.StreamIngestor`.
The daemon always coalesces, so coalescing is not part of the recipe.
The remaining fields (queues, rate limits, host/port) shape the
concurrent edge of the system and never influence what the core
computes, only *which* commands are admitted.

``backend=None`` defers to the ambient environment exactly like
:meth:`repro.core.api.DynamicMST.build`, and :meth:`resolved_backend`
reports the canonical name of the engine the daemon serves from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from repro.graphs.generators import random_weighted_graph
from repro.graphs.graph import WeightedGraph
from repro.sim.executor import backend_from_env, get_backend, resolve_backend


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs; the core recipe is replay-exact."""

    # --- deterministic core recipe (the replay contract) ---
    k: int = 8
    n: int = 64
    m: int = 128
    seed: int = 0
    engine: str = "sample_gather"
    init: str = "free"
    backend: Optional[str] = None      # None → ambient REPRO_BACKEND

    # --- concurrent edge (never visible to the core) ---
    host: str = "127.0.0.1"
    port: int = 7787
    max_frame_bytes: int = 64 * 1024
    admission_queue: int = 1024        # bounded; full queue = backpressure
    event_queue: int = 256             # per-subscriber; full queue = eviction
    rate_limit: float = 0.0            # mutations/s per client; 0 = unlimited
    rate_burst: int = 64
    rate_evict_after: int = 0          # consecutive rate-limit errors; 0 = never

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.admission_queue <= 0 or self.event_queue <= 0:
            raise ValueError("queue bounds must be positive")
        if self.rate_limit < 0 or self.rate_burst <= 0:
            raise ValueError("rate limit must be >= 0 and burst positive")
        if self.backend is not None:
            get_backend(self.backend)  # an unknown name raises ValueError

    @classmethod
    def from_env(cls, **overrides: object) -> "ServeConfig":
        """Config with the ambient ``REPRO_BACKEND`` made explicit.

        An unknown ``REPRO_BACKEND`` raises ``ValueError`` here, before
        any core is built.
        """
        cfg = cls(**overrides)  # type: ignore[arg-type]
        if cfg.backend is None:
            ambient = resolve_backend()
            if ambient is not None:
                cfg = replace(cfg, backend=ambient.name)
        return cfg

    def resolved_backend(self) -> str:
        """The canonical engine name the daemon serves from."""
        if self.backend is not None:
            return get_backend(self.backend).name
        return backend_from_env().name

    def initial_graph(self) -> WeightedGraph:
        """The seeded initial graph; identical on every construction."""
        return random_weighted_graph(self.n, self.m, rng=self.seed)

    def build_core(self):
        """A fresh, identically-configured ledger-charged core.

        Called once by the live reducer and once per offline replay; both
        constructions consume the same seeded generator draws, so their
        ledgers start (and must end) byte-identical.
        """
        from repro.core.api import DynamicMST

        return DynamicMST.build(
            self.initial_graph(),
            self.k,
            rng=self.seed,
            engine=self.engine,
            init=self.init,
            backend=self.backend,
        )

    def hello_payload(self) -> Dict[str, object]:
        """What the ``hello`` op reports: enough to reconstruct the core."""
        return {
            "schema": "repro-serve/1",
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "engine": self.engine,
            "init": self.init,
            "backend": self.resolved_backend(),
            "max_frame_bytes": self.max_frame_bytes,
        }

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

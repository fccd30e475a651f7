"""The determinism gate, exercised across every configuration axis.

The daemon's acceptance property: for ANY concurrent client
interleaving, draining the live daemon and replaying its admitted log
through a fresh :class:`repro.stream.ingest.StreamIngestor` over an
identically-seeded core ends on byte-identical ledger and forest
digests.  Live and offline run the ingestor's one cut step; what the
gate checks is the reducer's tick stamping and its admitted log (see
``repro/serve/reducer.py``), across cluster sizes and graph seeds,
under the scalar reference engine, and counter for counter on the two
pinned cut trajectories.
"""

import asyncio

import pytest

from repro.graphs.streams import ArrivalStream
from repro.serve import ServeConfig, offline_replay, verify_determinism
from repro.serve.reducer import ServeReducer
from repro.stream import StreamIngestor

from serve_harness import open_client, run, running_daemon, small_config
from test_concurrency import disjoint_slices, toggle_client
from test_cut_trajectory import CONFIG, hot_toggle, uniform_churn


async def churn(config, clients=5, per_client=2, rounds=2):
    """A concurrent interleaving; returns the drained daemon's reducer."""
    async with running_daemon(config) as daemon:
        slices = disjoint_slices(config, clients, per_client)
        await asyncio.gather(
            *(
                toggle_client(daemon, s, rounds=rounds, stagger=i % 3)
                for i, s in enumerate(slices)
            )
        )
        await daemon.shutdown(drain=True)
        return daemon.reducer


class TestAcrossConfigs:
    @pytest.mark.parametrize("k", [2, 6])
    def test_cluster_sizes(self, k):
        reducer = run(churn(small_config(k=k)))
        assert verify_determinism(reducer)["ok"]

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_graph_seeds(self, seed):
        reducer = run(churn(small_config(seed=seed)))
        assert verify_determinism(reducer)["ok"]

    def test_reference_backend_passes_the_gate(self):
        """A pinned backend flows through ServeConfig: the live daemon
        and the offline replay both serve from the scalar engine, and
        the ledgers still agree byte for byte."""
        config = small_config(backend="reference")
        reducer = run(churn(config, clients=3, per_client=2, rounds=1))
        verdict = verify_determinism(reducer)
        assert verdict["ok"], verdict


class TestGateMechanics:
    @pytest.mark.parametrize("stream", [hot_toggle, uniform_churn])
    def test_replay_agrees_on_every_counter(self, stream):
        """Not only the digests: the replay admits, ships, absorbs, cuts
        and ages the same updates as the live reducer, on the same clock."""
        config = ServeConfig(**CONFIG)
        reducer = ServeReducer(config)
        for update in stream(reducer):
            reducer.submit(update)
        reducer.drain()
        replay = StreamIngestor(config.build_core()).run(
            ArrivalStream(config.initial_graph(), reducer.admitted_log)
        )
        live = reducer.stats()
        for key in ("admitted", "shipped", "absorbed", "cuts", "batches",
                    "p50_ticks", "p99_ticks", "peak_queue_depth"):
            assert live[key] == getattr(replay, key), key
        assert reducer.ingestor.cut_reasons == replay.cut_reasons
        assert reducer.ingestor.now == replay.elapsed_ticks

    def test_offline_replay_reports_the_admitted_count(self):
        reducer = run(churn(small_config()))
        replay = offline_replay(reducer.config, reducer.admitted_log)
        assert replay.admitted == reducer.admitted
        assert replay.ledger_digest == reducer.ledger_digest()
        assert replay.forest_digest == reducer.forest_digest()

    def test_gate_actually_detects_divergence(self):
        """Sanity for the gate itself: a tampered log must NOT verify —
        otherwise every 'ok' above is vacuous."""
        reducer = run(churn(small_config()))
        assert verify_determinism(reducer)["ok"]
        # Dropping the final admitted mutation keeps the log valid (it
        # is a prefix) but changes the charged work — the ledger cannot
        # agree any more.
        tampered = list(reducer.admitted_log)[:-1]
        assert len(tampered) > 4
        replay = offline_replay(reducer.config, tampered)
        assert replay.ledger_digest != reducer.ledger_digest()

    def test_empty_log_replays_to_the_initial_state(self):
        config = small_config()
        reducer = ServeReducer(config)
        replay = offline_replay(config, [])
        assert replay.admitted == 0
        assert replay.forest_digest == reducer.forest_digest()

    def test_interleaving_changes_the_log_not_the_verdict(self):
        """Different staggers admit in different orders (different logs,
        different digests) yet each passes its own gate."""
        config = small_config()

        async def staggered(offsets):
            async with running_daemon(config) as daemon:
                slices = disjoint_slices(config, clients=4, per_client=2)

                async def client(i, pairs):
                    c = await open_client(daemon)
                    for _ in range(offsets[i]):
                        await asyncio.sleep(0)
                    for u, v in pairs:
                        resp = await c.request("add", u=u, v=v, w=0.5)
                        assert resp["ok"]
                    c.close()

                await asyncio.gather(
                    *(client(i, s) for i, s in enumerate(slices))
                )
                await daemon.shutdown(drain=True)
                return daemon.reducer

        r1 = run(staggered([0, 0, 0, 0]))
        r2 = run(staggered([3, 2, 1, 0]))
        assert verify_determinism(r1)["ok"]
        assert verify_determinism(r2)["ok"]
        log1 = [(t.tick, t.update.endpoints) for t in r1.admitted_log]
        log2 = [(t.tick, t.update.endpoints) for t in r2.admitted_log]
        assert sorted(p for _, p in log1) == sorted(p for _, p in log2)

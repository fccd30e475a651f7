"""Config plumbing and the session paths the bigger suites skip."""

import pytest

from repro.serve import ServeConfig

from serve_harness import open_client, run, running_daemon, small_config


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(k=0)
        with pytest.raises(ValueError):
            ServeConfig(admission_queue=0)
        with pytest.raises(ValueError):
            ServeConfig(rate_limit=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(rate_burst=0)

    def test_from_env_makes_ambient_backend_explicit(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert ServeConfig.from_env().backend is None
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        cfg = ServeConfig.from_env()
        assert cfg.backend == "reference"
        assert cfg.resolved_backend() == "reference"
        # an explicit backend wins over the environment
        assert ServeConfig.from_env(backend="inproc-columnar").backend == (
            "inproc-columnar"
        )

    def test_from_env_rejects_an_unknown_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="unknown execution backend"):
            ServeConfig.from_env()

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ServeConfig(backend="scalar")
        with pytest.raises(ValueError, match="unknown execution backend"):
            ServeConfig.from_env(backend="scalar")

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine 'typo'"):
            ServeConfig(engine="typo")
        with pytest.raises(ValueError, match="unknown engine 'typo'"):
            ServeConfig.from_env(engine="typo")
        assert ServeConfig(engine="boruvka").engine == "boruvka"

    def test_resolved_backend_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert ServeConfig().resolved_backend() == "inproc-columnar"
        assert ServeConfig().hello_payload()["backend"] == "inproc-columnar"
        assert ServeConfig(backend="reference").resolved_backend() == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert ServeConfig().resolved_backend() == "reference"
        with pytest.raises(ValueError, match="unknown execution backend"):
            ServeConfig(backend="scalar").resolved_backend()

    def test_initial_graph_is_deterministic(self):
        cfg = small_config()
        a = {(e.u, e.v, e.weight) for e in cfg.initial_graph().edges()}
        b = {(e.u, e.v, e.weight) for e in cfg.initial_graph().edges()}
        assert a == b

    def test_hello_payload_carries_the_recipe(self):
        cfg = small_config()
        payload = cfg.hello_payload()
        assert payload["schema"] == "repro-serve/1"
        for key in ("k", "n", "m", "seed", "engine", "init"):
            assert payload[key] == getattr(cfg, key)
        assert cfg.as_dict()["n"] == cfg.n


class TestSessionOddities:
    def test_unsubscribe_stops_the_event_flow(self):
        config = small_config()

        async def scenario():
            async with running_daemon(config) as daemon:
                from serve_harness import free_pair

                client = await open_client(daemon)
                assert (await client.request("subscribe"))["ok"]
                u, v = free_pair(daemon.reducer)
                assert (await client.request("add", u=u, v=v, w=0.5))["ok"]
                await client.drain_events()
                first = len(client.events)
                resp = await client.request("unsubscribe")
                assert resp["ok"] and resp["result"]["subscribed"] is False
                u2, v2 = free_pair(daemon.reducer)
                assert (await client.request("add", u=u2, v=v2, w=0.5))["ok"]
                await client.drain_events()
                assert len(client.events) == first
                client.close()

        run(scenario())

    def test_bye_flushes_the_farewell_then_closes(self):
        async def scenario():
            async with running_daemon() as daemon:
                client = await open_client(daemon)
                resp = await client.request("bye")
                assert resp["ok"] and resp["result"]["bye"] is True
                assert await client.read_message() is None  # EOF after bye
                client.close()

        run(scenario())

    def test_default_rate_clock_is_the_loop_clock(self):
        """rate_limit > 0 with no injected clock: the bucket reads the
        running loop's monotonic clock and a generous budget never
        rejects."""
        config = small_config(rate_limit=1000.0, rate_burst=64)

        async def scenario():
            async with running_daemon(config) as daemon:
                from serve_harness import free_pair

                client = await open_client(daemon)
                for _ in range(5):
                    u, v = free_pair(daemon.reducer)
                    resp = await client.request("add", u=u, v=v, w=0.5)
                    assert resp["ok"], resp
                client.close()

        run(scenario())

    def test_daemon_stats_surface(self):
        async def scenario():
            async with running_daemon() as daemon:
                client = await open_client(daemon)
                resp = await client.request("query", q="stats")
                stats = resp["result"]
                assert stats["sessions"] == 1
                assert stats["draining"] is False
                assert "backend" in stats
                client.close()

        run(scenario())

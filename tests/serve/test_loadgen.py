"""The load generator, up to the PR's acceptance scale.

The headline assertion lives here: ≥1000 concurrent in-process clients,
zero protocol errors, and a ledger digest byte-identical to the offline
replay of the admitted sequence — the same gate the ``serve-smoke`` CI
job runs through the CLI.
"""

from repro.serve.loadgen import (
    LoadgenReport,
    client_pairs,
    initial_pairs,
    run_embedded,
    run_loadgen,
    run_tcp,
)

from serve_harness import run, small_config


class TestPairAssignment:
    def test_slices_are_disjoint_and_cover(self):
        config = small_config()
        taken = initial_pairs(config)
        clients = 7
        slices = [
            client_pairs(config.n, taken, clients, i) for i in range(clients)
        ]
        seen = set()
        for s in slices:
            assert not (set(s) & seen)
            assert not (set(s) & taken)
            seen.update(s)
        total_free = config.n * (config.n - 1) // 2 - len(taken)
        assert len(seen) == total_free

    def test_initial_pairs_match_the_seeded_graph(self):
        config = small_config()
        g = config.initial_graph()
        assert initial_pairs(config) == {(e.u, e.v) for e in g.edges()}

    def test_report_arithmetic(self):
        report = LoadgenReport(
            clients=2, commands=10, mutations=8, ok=9,
            errors={"rate-limited": 1}, wall_s=2.0,
        )
        assert report.error_total == 1
        assert report.commands_per_s == 5.0
        d = report.as_dict()
        assert d["ok"] == 9 and "verify" not in d


class TestEmbedded:
    def test_small_run_is_clean_and_verified(self):
        report, daemon = run(
            run_embedded(small_config(), clients=10, commands=8, seed=1)
        )
        assert report.error_total == 0, report.errors
        assert report.verify is not None and report.verify["ok"]
        assert report.mutations > 0
        assert daemon.reducer.rejected == 0

    def test_listeners_receive_broadcasts(self):
        # every 4th client subscribes instead of mutating
        report, daemon = run(
            run_embedded(
                small_config(), clients=8, commands=10,
                seed=2, subscribe_every=4,
            )
        )
        assert report.error_total == 0, report.errors
        assert report.events > 0
        assert report.verify["ok"]

    def test_rejects_impossible_client_counts(self):
        import pytest

        config = small_config()
        with pytest.raises(ValueError):
            run(run_loadgen(None, config, clients=0, commands=5))
        with pytest.raises(ValueError):
            # more clients than free pairs
            run(run_loadgen(None, config, clients=10**6, commands=1))

    def test_thousand_clients_pass_the_gate(self):
        """The acceptance bar: ≥1000 concurrent clients, no errors, and
        the live ledger byte-identical to the offline replay."""
        config = small_config(n=96, m=160, k=4)
        report, daemon = run(
            run_embedded(config, clients=1000, commands=3, seed=0)
        )
        assert report.clients == 1000
        assert report.error_total == 0, report.errors
        assert report.verify is not None
        assert report.verify["ok"], report.verify
        assert (
            report.verify["live_ledger_digest"]
            == report.verify["replay_ledger_digest"]
        )
        assert daemon.reducer.admitted > 1000
        assert not daemon.evictions


class TestTCP:
    def test_loadgen_over_real_sockets(self):
        """End to end over loopback TCP: the hello payload carries the
        graph recipe, the generator reconstructs it, and the daemon's
        drained state passes the gate."""
        from repro.serve import MSTDaemon, verify_determinism

        async def scenario():
            config = small_config(port=0)  # ephemeral port
            daemon = MSTDaemon(config)
            port = await daemon.start_tcp()
            report = await run_tcp(
                "127.0.0.1", port, clients=20, commands=5, seed=4
            )
            await daemon.shutdown(drain=True)
            return report, verify_determinism(daemon.reducer)

        report, verdict = run(scenario())
        assert report.error_total == 0, report.errors
        assert report.ok > 0
        assert verdict["ok"], verdict

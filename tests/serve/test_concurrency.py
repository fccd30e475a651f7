"""Concurrency semantics: serialization, backpressure, eviction, limits.

These tests drive many interleaved clients against one in-process
daemon and assert the properties the tentpole promises:

* whatever the interleaving, the admitted log is a single total order
  and the final forest is byte-identical to a **single client** issuing
  the same admitted sequence alone;
* the bounded admission queue exerts backpressure instead of growing;
* a subscriber that stops reading is evicted (slow-consumer) without
  ever stalling the reduce loop;
* per-client token buckets reject and — past the strike limit — evict,
  on an injected clock so not a single wall-second is slept.
"""

import asyncio

from repro.serve import MSTDaemon, verify_determinism
from repro.serve.server import TokenBucket

from serve_harness import open_client, run, running_daemon, small_config


def disjoint_slices(config, clients, per_client):
    """Per-client disjoint free pairs, so any interleaving is valid."""
    taken = {(e.u, e.v) for e in config.initial_graph().edges()}
    free = [
        (u, v)
        for u in range(config.n)
        for v in range(u + 1, config.n)
        if (u, v) not in taken
    ]
    need = clients * per_client
    assert len(free) >= need, "graph too dense for this test"
    return [free[i * per_client:(i + 1) * per_client] for i in range(clients)]


async def toggle_client(daemon, pairs, rounds, stagger=0):
    """Add then delete each pair, ``rounds`` times over."""
    client = await open_client(daemon)
    if stagger:
        await asyncio.sleep(0)
    oks = 0
    for _ in range(rounds):
        for u, v in pairs:
            resp = await client.request("add", u=u, v=v, w=(u + v) / 100.0)
            assert resp is not None and resp["ok"], resp
            oks += 1
        for u, v in pairs:
            resp = await client.request("delete", u=u, v=v)
            assert resp is not None and resp["ok"], resp
            oks += 1
    await client.request("bye")
    client.close()
    return oks


class TestSerialization:
    def test_interleaved_clients_serialize_into_one_log(self):
        config = small_config()

        async def scenario():
            async with running_daemon(config) as daemon:
                slices = disjoint_slices(config, clients=8, per_client=3)
                results = await asyncio.gather(
                    *(toggle_client(daemon, s, rounds=2) for s in slices)
                )
                assert sum(results) == 8 * 3 * 2 * 2
                reducer = daemon.reducer
                assert reducer.admitted == sum(results)
                assert reducer.rejected == 0
                # the log is one strictly ordered sequence
                ticks = [t.tick for t in reducer.admitted_log]
                assert ticks == sorted(ticks)
                await daemon.shutdown(drain=True)
                return reducer

        reducer = run(scenario())
        verdict = verify_determinism(reducer)
        assert verdict["ok"], verdict

    def test_concurrent_run_matches_single_client_replay(self):
        """The flagship property: N concurrent clients end on the same
        forest and ledger digests as ONE client sending the admitted
        sequence alone, over a fresh daemon."""
        config = small_config()

        async def concurrent():
            async with running_daemon(config) as daemon:
                slices = disjoint_slices(config, clients=6, per_client=2)
                await asyncio.gather(
                    *(
                        toggle_client(daemon, s, rounds=2, stagger=i % 3)
                        for i, s in enumerate(slices)
                    )
                )
                await daemon.shutdown(drain=True)
                return daemon.reducer

        live = run(concurrent())
        log = [t.update for t in live.admitted_log]

        async def single():
            async with running_daemon(config) as daemon:
                client = await open_client(daemon)
                for update in log:
                    fields = {"u": update.u, "v": update.v}
                    if update.kind == "add":
                        resp = await client.request(
                            "add", w=update.weight, **fields
                        )
                    else:
                        resp = await client.request("delete", **fields)
                    assert resp is not None and resp["ok"], resp
                client.close()
                await daemon.shutdown(drain=True)
                return daemon.reducer

        solo = run(single())
        assert live.forest_digest() == solo.forest_digest()
        assert live.ledger_digest() == solo.ledger_digest()
        assert [t.tick for t in live.admitted_log] == [
            t.tick for t in solo.admitted_log
        ]

    def test_seeded_interleavings_all_pass_the_gate(self):
        for seed in (0, 1, 7):
            config = small_config(seed=seed)

            async def scenario():
                async with running_daemon(config) as daemon:
                    slices = disjoint_slices(config, clients=5, per_client=2)
                    await asyncio.gather(
                        *(
                            toggle_client(daemon, s, rounds=1, stagger=i % 2)
                            for i, s in enumerate(slices)
                        )
                    )
                    await daemon.shutdown(drain=True)
                    return verify_determinism(daemon.reducer)

            verdict = run(scenario())
            assert verdict["ok"], (seed, verdict)


class TestBackpressure:
    def test_tiny_admission_queue_still_correct(self):
        """With a 2-slot admission queue, readers block on put() instead
        of anything growing unboundedly — and the result is unchanged."""
        config = small_config(admission_queue=2)

        async def scenario():
            async with running_daemon(config) as daemon:
                slices = disjoint_slices(config, clients=10, per_client=2)
                await asyncio.gather(
                    *(toggle_client(daemon, s, rounds=2) for s in slices)
                )
                assert daemon.reducer.rejected == 0
                assert daemon.admission.qsize() <= 2
                await daemon.shutdown(drain=True)
                return verify_determinism(daemon.reducer)

        assert run(scenario())["ok"]

    def test_memory_transport_write_blocks_when_peer_is_full(self):
        from repro.serve.transport import MemoryTransport

        async def scenario():
            a, b = MemoryTransport.pair(queue_chunks=2)
            a.write(b"1")
            await a.drain()
            a.write(b"2")
            await a.drain()
            a.write(b"3")
            stuck = asyncio.ensure_future(a.drain())
            await asyncio.sleep(0)
            assert not stuck.done(), "drain must block while the peer is full"
            assert await b.read() == b"1"
            await asyncio.wait_for(stuck, timeout=1)
            assert await b.read() == b"2"
            assert await b.read() == b"3"
            a.close()
            assert await b.read() == b""
            b.close()

        run(scenario())


class TestEviction:
    def test_slow_subscriber_is_evicted_not_waited_for(self):
        """A subscriber that never reads fills its bounded outbox; the
        broadcast path evicts it and the mutating client is unaffected."""
        config = small_config(event_queue=2)

        async def scenario():
            async with running_daemon(config) as daemon:
                # A 1-chunk transport + 2-slot outbox: a handful of
                # unread events is all it takes to overflow.
                lurker = daemon.connect_memory(queue_chunks=1)
                resp = await lurker.request("subscribe")
                assert resp["ok"]
                # from here on the lurker never reads again
                slices = disjoint_slices(config, clients=1, per_client=4)
                total = await toggle_client(daemon, slices[0], rounds=10)
                assert total == 80
                for _ in range(200):
                    if daemon.evictions.get("slow-consumer"):
                        break
                    await asyncio.sleep(0.01)
                assert daemon.evictions.get("slow-consumer", 0) == 1
                assert daemon.reducer.rejected == 0
                await daemon.shutdown(drain=True)
                return verify_determinism(daemon.reducer)

        assert run(scenario())["ok"]

    def test_live_subscriber_sees_every_publish(self):
        config = small_config()

        async def scenario():
            async with running_daemon(config) as daemon:
                watcher = await open_client(daemon)
                assert (await watcher.request("subscribe"))["ok"]
                slices = disjoint_slices(config, clients=2, per_client=3)
                await asyncio.gather(
                    *(toggle_client(daemon, s, rounds=1) for s in slices)
                )
                await daemon.shutdown(drain=True)
                events = await watcher.drain_events()
                versions = [
                    e["version"] for e in events if e["event"] == "msf_change"
                ]
                # every published version arrives exactly once, in order
                assert versions == list(range(1, len(versions) + 1))
                assert len(versions) == daemon.reducer.view.version
                watcher.close()

        run(scenario())

    def test_no_subscriber_means_no_event_encoding(self, monkeypatch):
        """Each published change is encoded only when a session listens."""
        from repro.serve import server

        calls = []
        encode_event = server.encode_event

        def counting(event):
            calls.append(event)
            return encode_event(event)

        monkeypatch.setattr(server, "encode_event", counting)
        config = small_config()

        async def scenario():
            async with running_daemon(config) as daemon:
                slices = disjoint_slices(config, clients=2, per_client=3)
                await asyncio.gather(
                    *(toggle_client(daemon, s, rounds=1) for s in slices)
                )
                await daemon.shutdown(drain=True)
                assert daemon.reducer.view.version > 0
                assert calls == []

        run(scenario())


class TestRateLimit:
    def test_token_bucket_is_exact_on_a_manual_clock(self):
        t = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: t[0])
        assert [bucket.take() for _ in range(4)] == [True, True, True, False]
        t[0] += 1.0  # 2 tokens refill
        assert [bucket.take() for _ in range(3)] == [True, True, False]
        t[0] += 100.0  # refill clamps at burst
        assert [bucket.take() for _ in range(4)] == [True, True, True, False]

    def test_rate_limited_mutations_get_typed_errors(self):
        t = [0.0]
        config = small_config(rate_limit=1.0, rate_burst=2)

        async def scenario():
            daemon = MSTDaemon(config, clock=lambda: t[0])
            await daemon.start()
            client = await open_client(daemon)
            slices = disjoint_slices(config, clients=1, per_client=4)
            pairs = slices[0]
            ok = limited = 0
            for u, v in pairs:
                resp = await client.request("add", u=u, v=v, w=0.5)
                if resp["ok"]:
                    ok += 1
                else:
                    assert resp["error"]["code"] == "rate-limited"
                    limited += 1
            assert (ok, limited) == (2, 2)  # burst of 2, clock frozen
            t[0] += 10.0  # refill: next mutation passes again
            u, v = pairs[ok]
            resp = await client.request("add", u=u, v=v, w=0.5)
            assert resp["ok"]
            # rejections at the rate limiter never touched the reducer
            assert daemon.reducer.admitted == 3
            assert daemon.reducer.rejected == 0
            client.close()
            await daemon.shutdown(drain=True)
            return verify_determinism(daemon.reducer)

        assert run(scenario())["ok"]

    def test_repeat_offenders_are_evicted(self):
        t = [0.0]
        config = small_config(rate_limit=1.0, rate_burst=1, rate_evict_after=3)

        async def scenario():
            daemon = MSTDaemon(config, clock=lambda: t[0])
            await daemon.start()
            client = await open_client(daemon)
            slices = disjoint_slices(config, clients=1, per_client=6)
            responses = []
            for u, v in slices[0]:
                resp = await client.request("add", u=u, v=v, w=0.5)
                responses.append(resp)
                if resp is None:
                    break
            assert responses[0]["ok"]
            strikes = [
                r for r in responses[1:]
                if r is not None and not r.get("ok")
            ]
            assert all(
                r["error"]["code"] == "rate-limited" for r in strikes
            )
            for _ in range(200):
                if daemon.evictions.get("rate-limit"):
                    break
                await asyncio.sleep(0.01)
            assert daemon.evictions.get("rate-limit", 0) == 1
            client.close()
            await daemon.shutdown(drain=True)

        run(scenario())


class TestShutdown:
    def test_mutations_after_drain_are_refused(self):
        config = small_config()

        async def scenario():
            async with running_daemon(config) as daemon:
                client = await open_client(daemon)
                slices = disjoint_slices(config, clients=1, per_client=1)
                (pair,) = slices[0]
                resp = await client.request("add", u=pair[0], v=pair[1], w=0.5)
                assert resp["ok"]
                daemon.draining = True
                resp = await client.request("delete", u=pair[0], v=pair[1])
                assert resp["error"]["code"] == "shutting-down"
                client.close()
                await daemon.shutdown(drain=True)
                assert daemon.reducer.buffer.pending_cost == 0
                return verify_determinism(daemon.reducer)

        assert run(scenario())["ok"]

    def test_queries_answer_from_the_replicated_view_at_zero_rounds(self):
        config = small_config()

        async def scenario():
            async with running_daemon(config) as daemon:
                client = await open_client(daemon, hello=True)
                rounds_before = daemon.reducer.dm.net.ledger.rounds
                for q in ("weight", "components", "stats"):
                    resp = await client.request("query", q=q)
                    assert resp["ok"], resp
                resp = await client.request("query", q="in-forest", u=0, v=1)
                assert resp["ok"]
                resp = await client.request("query", q="component", v=0)
                assert resp["ok"] and resp["result"]["component"] is not None
                resp = await client.request("query", q="component", v=10**6)
                assert resp["error"]["code"] == "unknown-vertex"
                resp = await client.request(
                    "query", q="in-forest", u=0, v=10**6
                )
                assert resp["error"]["code"] == "unknown-vertex"
                # point queries charge nothing: served from the view
                assert daemon.reducer.dm.net.ledger.rounds == rounds_before
                client.close()

        run(scenario())

"""Property-based protocol fuzzing (satellite: hostile-wire hardening).

Three invariants, asserted over Hypothesis-generated hostile input:

1. the daemon never crashes — after any garbage, a well-formed ping on
   the same connection still gets its pong;
2. a rejected frame never mutates reducer state — the admitted log,
   logical clock and ledger digest are all byte-identical before and
   after;
3. every rejection is a *typed* error — ``ok: false`` with a code drawn
   from :data:`repro.serve.types.ERROR_CODES`.

``derandomize=True`` keeps CI reproducible; the parser-level properties
run without an event loop so the example budget stays cheap, and the
full daemon round-trip runs on a smaller budget.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import ERROR_CODES, ProtocolError, decode_command
from repro.serve.parser import FrameSplitter, Oversized, Truncated

from serve_harness import open_client, run, running_daemon

FUZZ = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
FUZZ_SLOW = settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# JSON-ish objects: random ops, random field soup, nested junk.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=20),
)
json_objects = st.dictionaries(
    st.sampled_from(["op", "id", "u", "v", "w", "q", "x", "", "nested"]),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),
    max_size=6,
)


class TestParserTotality:
    """The wire layer is a total function over arbitrary bytes."""

    @FUZZ
    @given(st.binary(max_size=300))
    def test_splitter_never_raises_and_conserves_bytes(self, data):
        splitter = FrameSplitter(max_frame=64)
        seen = 0
        for frame in splitter.feed(data):
            if isinstance(frame, bytes):
                seen += len(frame) + 1  # + newline
            else:
                assert isinstance(frame, Oversized)
                seen += frame.dropped + 1
        for frame in splitter.eof():
            assert isinstance(frame, Truncated)
            seen += frame.dropped
        assert seen == len(data)

    @FUZZ
    @given(st.lists(st.binary(max_size=80), max_size=8))
    def test_splitter_chunking_is_irrelevant(self, chunks):
        blob = b"".join(chunks)
        one = FrameSplitter(max_frame=32)
        whole = list(one.feed(blob)) + list(one.eof())
        per = FrameSplitter(max_frame=32)
        pieces = [f for c in chunks for f in per.feed(c)] + list(per.eof())
        assert whole == pieces

    @FUZZ
    @given(st.binary(max_size=200))
    def test_decode_raises_only_protocol_error(self, frame):
        frame = frame.replace(b"\n", b" ")
        try:
            decode_command(frame)
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES
            assert exc.response().code == exc.code

    @FUZZ
    @given(json_objects)
    def test_decode_json_soup(self, obj):
        frame = json.dumps(obj).encode()
        try:
            cmd = decode_command(frame)
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES
        else:
            assert hasattr(cmd, "id")


class TestDaemonUnderFire:
    """Garbage on the wire never crashes or corrupts the daemon."""

    @FUZZ_SLOW
    @given(st.binary(max_size=120))
    def test_garbage_then_ping_still_works(self, garbage):
        async def scenario():
            async with running_daemon() as daemon:
                reducer = daemon.reducer
                client = await open_client(daemon)
                before = (
                    reducer.admitted,
                    reducer.ingestor.now,
                    reducer.ledger_digest(),
                )
                await client.send_bytes(garbage.replace(b"\n", b"") + b"\n")
                resp = await client.request("ping")
                assert resp is not None and resp["ok"]
                assert resp["result"]["pong"] is True
                after = (
                    reducer.admitted,
                    reducer.ingestor.now,
                    reducer.ledger_digest(),
                )
                assert before == after
                client.close()

        run(scenario())

    @FUZZ_SLOW
    @given(st.lists(json_objects, min_size=1, max_size=5))
    def test_pipelined_soup_gets_typed_answers(self, objs):
        """Pipelined junk frames: each id-bearing frame gets exactly one
        response, every error carries a registered code, and mutations
        that *do* validate keep the gate green."""

        async def scenario():
            async with running_daemon() as daemon:
                client = await open_client(daemon)
                blob = b"".join(json.dumps(o).encode() + b"\n" for o in objs)
                await client.send_bytes(blob)
                resp = await client.request("ping")
                assert resp is not None and resp["ok"]
                # drain everything else that came back
                replies = [m for m in client._inbox if "event" not in m]
                for msg in replies:
                    if not msg.get("ok"):
                        assert msg["error"]["code"] in ERROR_CODES
                client.close()
                await daemon.shutdown(drain=True)
                from repro.serve import verify_determinism

                assert verify_determinism(daemon.reducer)["ok"]

        run(scenario())

    def test_oversized_frame_is_one_error_not_a_dead_socket(self):
        async def scenario():
            async with running_daemon(max_frame_bytes=256) as daemon:
                client = await open_client(daemon)
                await client.send_bytes(b"x" * 1000 + b"\n")
                msg = await client.read_message()
                assert msg is not None and not msg["ok"]
                assert msg["error"]["code"] == "oversized-frame"
                resp = await client.request("ping")
                assert resp is not None and resp["ok"]
                client.close()

        run(scenario())

    def test_truncated_final_frame_is_flagged(self):
        async def scenario():
            async with running_daemon() as daemon:
                client = await open_client(daemon)
                await client.send_bytes(b'{"op":"ping"')  # no newline, then EOF
                client.transport.close()
                await run_until_sessions_gone(daemon)
                assert daemon.reducer.admitted == 0

        async def run_until_sessions_gone(daemon):
            import asyncio

            for _ in range(100):
                if not daemon.sessions:
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("session did not close after client EOF")

        run(scenario())

    def test_rejected_mutations_never_reach_the_log(self):
        """Structurally valid but semantically invalid mutations (delete
        of a missing edge, duplicate add) are rejected with typed codes
        and stay invisible to the replay."""

        async def scenario():
            async with running_daemon() as daemon:
                from serve_harness import free_pair

                u, v = free_pair(daemon.reducer)
                client = await open_client(daemon)
                resp = await client.request("delete", u=u, v=v)
                assert resp["error"]["code"] == "edge-missing"
                resp = await client.request("add", u=u, v=v, w=0.5)
                assert resp["ok"]
                resp = await client.request("add", u=u, v=v, w=0.9)
                assert resp["error"]["code"] == "edge-exists"
                resp = await client.request("add", u=0, v=10**6, w=0.5)
                assert resp["error"]["code"] == "unknown-vertex"
                assert daemon.reducer.admitted == 1
                assert daemon.reducer.rejected == 3
                client.close()

        run(scenario())

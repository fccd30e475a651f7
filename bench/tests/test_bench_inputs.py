"""The generators: valid at admission, seeded, and no u == v reads."""

import json

from inputs import READ, WRITE, core_input, mixed_schedule, serve_graph, write_commands
from repro.serve.parser import decode_command
from repro.serve.types import Mutate, Query


def _admit_all(graph, frames):
    """Replay frames in order the way the reducer validates them."""
    g = graph.copy()
    for data in frames:
        cmd = decode_command(data.rstrip(b"\n"))
        assert isinstance(cmd, Mutate)
        upd = cmd.update
        if upd.kind == "add":
            assert not g.has_edge(upd.u, upd.v), f"add of present edge {upd}"
            g.add_edge(upd.u, upd.v, upd.weight)
        else:
            assert g.has_edge(upd.u, upd.v), f"delete of absent edge {upd}"
            g.remove_edge(upd.u, upd.v)
    return g


def test_write_commands_are_valid_at_admission():
    graph = serve_graph(3, 120, 360)
    frames, final = write_commands(graph, 600, 0.5, seed=3)
    replayed = _admit_all(graph, frames)
    assert replayed == final
    ops = {json.loads(f)["op"] for f in frames}
    assert ops == {"add", "delete"}


def test_mixed_writes_are_valid_and_reads_never_ask_a_self_pair():
    graph = serve_graph(5, 100, 300)
    sched = mixed_schedule(graph, 2.0, 40.0, 400.0, 16, 1.2, seed=5)
    assert _admit_all(graph, sched.frames[WRITE]) == sched.final
    kinds = set()
    for data in sched.frames[READ]:
        cmd = decode_command(data.rstrip(b"\n"))
        assert isinstance(cmd, Query)
        kinds.add(cmd.q)
        if cmd.q == "in-forest":
            assert cmd.u != cmd.v
    assert kinds == {"in-forest", "component", "weight", "components"}
    for times in sched.times:
        assert times == sorted(times) and 0 <= times[0] and times[-1] < 2.0
    assert [t for t, _, _ in sched.merged()] == sorted(t for ts in sched.times for t in ts)


def test_hot_pairs_are_not_initial_edges():
    graph = serve_graph(7, 60, 180)
    sched = mixed_schedule(graph, 2.0, 50.0, 10.0, 8, 1.2, seed=7)
    first = json.loads(sched.frames[WRITE][0])
    assert first["op"] == "add" and not graph.has_edge(first["u"], first["v"])


def test_same_seed_gives_byte_identical_streams():
    graph = serve_graph(1, 100, 300)
    assert write_commands(graph, 200, 0.5, 1) == write_commands(graph, 200, 0.5, 1)
    assert write_commands(graph, 200, 0.5, 1)[0] != write_commands(graph, 200, 0.5, 2)[0]
    a = mixed_schedule(graph, 1.0, 40.0, 200.0, 16, 1.2, seed=1)
    b = mixed_schedule(graph, 1.0, 40.0, 200.0, 16, 1.2, seed=1)
    assert a.frames == b.frames and a.times == b.times
    c1, s1 = core_input(0, 4, 80, 200, 8, 3, 0.5)
    c2, s2 = core_input(0, 4, 80, 200, 8, 3, 0.5)
    assert c1 == c2 and s1.batches == s2.batches
    assert core_input(0, 5, 80, 200, 8, 3, 0.5)[1].batches != s1.batches

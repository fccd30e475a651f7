"""Edge-list and stream I/O roundtrips."""

import pytest

from repro.errors import ReproError
from repro.graphs import churn_stream, random_weighted_graph
from repro.graphs.io import (
    read_edge_list,
    read_stream,
    write_edge_list,
    write_stream,
)


class TestEdgeList:
    def test_roundtrip(self, rng, tmp_path):
        g = random_weighted_graph(20, 50, rng)
        g.add_vertex(99)  # isolated
        path = str(tmp_path / "g.edges")
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# hi\n\n0 1 0.5  # trailing comment\n7\n")
        g = read_edge_list(str(path))
        assert g.has_edge(0, 1) and g.has_vertex(7)

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        with pytest.raises(ReproError, match="g.edges:1"):
            read_edge_list(str(path))


class TestStream:
    def test_roundtrip(self, rng, tmp_path):
        g = random_weighted_graph(15, 30, rng)
        s = churn_stream(g, 4, 5, rng=rng)
        path = str(tmp_path / "s.json")
        write_stream(s, path)
        s2 = read_stream(path)
        assert s2.initial == s.initial
        assert [[(u.kind, u.u, u.v, u.weight) for u in b] for b in s2] == [
            [(u.kind, u.u, u.v, u.weight) for u in b] for b in s
        ]
        assert s2.final_graph() == s.final_graph()

    def test_unknown_op(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"initial": {"vertices": [0,1], "edges": []}, '
                        '"batches": [[{"op": "merge", "u": 0, "v": 1}]]}')
        with pytest.raises(ReproError):
            read_stream(str(path))

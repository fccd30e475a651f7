"""Edge cases for the streaming ingestor the main suite skips over.

Two seams that the serve daemon leans on:

* an **empty** arrival stream — the daemon's replay path for a client
  population that only ever queries;
* churn that **coalesces to zero** shipped updates — add+delete of the
  same pair annihilate in the buffer, so a cut ships nothing and the
  ledger charges nothing.
"""

from repro.core import DynamicMST
from repro.graphs import random_weighted_graph
from repro.graphs.mst import forest_digest
from repro.graphs.streams import ArrivalStream, TimedUpdate, Update


def _core(n=24, m=36, seed=3, k=4):
    g = random_weighted_graph(n, m, rng=seed)
    return g, DynamicMST.build(g, k, rng=seed, init="free")


class TestEmptyStream:
    def test_ingest_on_an_empty_stream_is_a_no_op(self):
        g, dm = _core()
        digest_before = dm.net.ledger.digest()
        forest_before = forest_digest(dm.msf_edges())
        report = dm.ingest(ArrivalStream(g, [], name="empty"))
        assert report.admitted == 0
        assert report.shipped == 0
        assert report.cuts == 0
        assert dm.net.ledger.digest() == digest_before
        assert report.forest_digest == forest_before


class TestCoalesceToZero:
    def _churn_stream(self, g, pairs, tick=0):
        """add+delete the same free pairs back to back: pure churn."""
        arrivals = []
        for u, v in pairs:
            arrivals.append(TimedUpdate(tick, Update.add(u, v, 0.5)))
            arrivals.append(TimedUpdate(tick, Update.delete(u, v)))
        return ArrivalStream(g, arrivals, name="churn")

    def _free_pairs(self, g, n, count):
        present = {(e.u, e.v) for e in g.edges()}
        out = []
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in present:
                    out.append((u, v))
                    if len(out) == count:
                        return out
        raise AssertionError("graph too dense")

    def test_churn_ships_nothing_and_charges_nothing(self):
        g, dm = _core()
        pairs = self._free_pairs(g, 24, 4)
        rounds_before = dm.net.ledger.rounds
        report = dm.ingest(self._churn_stream(g, pairs))
        assert report.admitted == 8
        assert report.shipped == 0
        assert report.absorbed == 8
        assert dm.net.ledger.rounds == rounds_before
        # and the forest is exactly the initial one
        assert report.forest_digest == forest_digest(dm.msf_edges())

    def test_churn_without_coalescing_does_ship(self):
        g, dm = _core()
        pairs = self._free_pairs(g, 24, 4)
        report = dm.ingest(self._churn_stream(g, pairs), coalesce=False)
        assert report.admitted == 8
        assert report.shipped == 8
        assert report.absorbed == 0


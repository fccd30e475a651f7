"""The committed stream sweep reproduces exactly.

``BENCH_2026-08-09_stream.json`` measured four stream shapes, raw and
coalesced, at k=8, seed 0, 24 ticks and 8 arrivals per tick.  Its
``fixed`` rows (size cuts plus a final flush) are what the one
size-or-deadline rule still does on these streams, so replaying each
row through :meth:`DynamicMST.ingest` must give back every counter the
row recorded: the ledger bill, the shipped/absorbed split, cuts,
batches and staleness quantiles.  These counters are what a wall-clock
coalesced-over-raw ratio is made of, and unlike the ratio they are
exact.  Every run must also end on the Kruskal oracle's forest.
"""

import json
from pathlib import Path

import pytest

from repro.core import DynamicMST
from repro.graphs import forest_digest
from repro.graphs.mst import kruskal_msf
from repro.stream import make_shape

BENCH = Path(__file__).resolve().parents[2] / "BENCH_2026-08-09_stream.json"

FIELDS = (
    "admitted", "shipped", "absorbed", "cuts", "batches", "rounds",
    "messages", "words", "elapsed_ticks", "p50_ticks", "p99_ticks",
    "peak_queue_depth", "msf_weight", "forest_digest",
)

#: (shape, coalesced) -> cut reasons.  The committed rows predate the
#: deadline: where a raw tail waited 8 ticks, its final cut now reads
#: ``deadline`` instead of ``flush``.
CUT_REASONS = {
    ("uniform", False): {"size": 24},
    ("uniform", True): {"size": 15, "deadline": 1},
    ("sliding-window", False): {"size": 44},
    ("sliding-window", True): {"size": 6},
    ("flash-crowd", False): {"size": 22, "deadline": 1},
    ("flash-crowd", True): {"size": 7},
    ("adversarial", False): {"size": 15, "deadline": 1},
    ("adversarial", True): {"size": 2},
}


@pytest.fixture(scope="module")
def committed():
    """(shape, coalesced) -> (shape row, run row) for the ``fixed`` runs."""
    rows = {}
    for shape in json.loads(BENCH.read_text())["stream"]["shapes"]:
        for run in shape["runs"]:
            if run["policy"] == "fixed":
                rows[shape["shape"], run["coalesced"]] = (shape, run)
    return rows


@pytest.mark.parametrize(
    "key", list(CUT_REASONS),
    ids=lambda key: f"{key[0]}-{'coalesced' if key[1] else 'raw'}",
)
def test_ingest_reproduces_the_committed_row(committed, key):
    shape, row = committed[key]
    stream = make_shape(shape["shape"], seed=shape["seed"],
                        ticks=shape["ticks"], rate=shape["rate"])
    dm = DynamicMST.build(stream.initial, shape["k"], rng=shape["seed"],
                          init="free")
    report = dm.ingest(stream, coalesce=row["coalesced"])
    dm.check()
    assert {f: getattr(report, f) for f in FIELDS} == {f: row[f] for f in FIELDS}
    assert report.forest_digest == forest_digest(kruskal_msf(stream.final_graph()))
    assert report.cut_reasons == CUT_REASONS[key]

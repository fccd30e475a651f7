"""Golden-digest regression pin for the ledger transcript.

``Ledger.digest()`` is the equivalence contract between the scalar
reference path and every fast path: two runs are "the same algorithm"
iff they charge byte-identical transcripts.  That makes the digest of a
fixed, seeded trajectory part of the public behaviour — an accidental
change to charging order, message accounting, or word sizes shows up
here first, before it silently re-baselines every equivalence test.

If a change legitimately alters charging (a new phase, a different
message layout), update GOLDEN below *in the same commit* and say why
in the commit message.
"""

import numpy as np
import pytest

from repro.core import DynamicMST
from repro.graphs import churn_stream, random_weighted_graph

# Fixed trajectory: n=80 m=240 k=4, free init, 3 churn batches of 4,
# seed 0 throughout.  Recorded 2026-08 (observability PR).
GOLDEN = {
    "digest": "868418034c1565c8def7ecb4b612314700eaf8fea24f8b6ebf867bc7515bea6b",
    "rounds": 537,
    "messages": 662,
    "words": 2589,
}


def _run(backend):
    rng = np.random.default_rng(0)
    g = random_weighted_graph(80, 240, rng)
    dm = DynamicMST.build(g, 4, rng=rng, init="free", backend=backend)
    for batch in churn_stream(g.copy(), 4, 3, rng=rng):
        dm.apply_batch(batch)
    dm.check()
    return dm.net.ledger


# The ids are the engine names the trace's ``engine`` events record.
@pytest.mark.parametrize("backend", ["reference", "inproc-columnar"],
                         ids=["scalar", "columnar"])
def test_golden_digest(backend):
    ledger = _run(backend)
    assert ledger.digest() == GOLDEN["digest"]
    assert ledger.rounds == GOLDEN["rounds"]
    assert ledger.messages == GOLDEN["messages"]
    assert ledger.words == GOLDEN["words"]


def test_digest_is_deterministic_across_runs():
    assert _run("reference").digest() == _run("reference").digest()

"""The generated API reference must exist and be current."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "tools"))

import gen_reference  # noqa: E402


def test_reference_is_current():
    generated = gen_reference.generate()
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "docs", "reference.md"
    )
    with open(path) as f:
        on_disk = f.read()
    assert generated == on_disk, (
        "docs/reference.md is stale; run `python tools/gen_reference.py`"
    )


def test_reference_covers_key_apis():
    generated = gen_reference.generate()
    for needle in (
        "repro.core.api", "DynamicMST", "apply_batch",
        "repro.euler.labels", "repro.comm.lenzen", "lenzen_sort",
        "repro.stream.ingest", "repro.lowerbound.adversary",
    ):
        assert needle in generated, needle

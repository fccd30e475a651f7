"""Engine parity on the smoke scenarios, pinned to their ledger digests.

Both engines run smoke-small, smoke-medium and smoke-init through
:func:`repro.trace.scenarios.run_traced` under ``REPRO_STRICT=1``; the
columnar engine applies every structural batch at these sizes too.  Each
engine must charge the pinned ledger, end on the same MSF weight and
record no strict violation.  The pins are the digests ``repro trace`` prints for
these scenarios.
"""

import pytest

from repro.trace.scenarios import get_scenario, run_traced

BACKENDS = ("reference", "inproc-columnar")

DIGESTS = {
    "smoke-small": "ab1cf40f4acda2fe65cfc18dd911d5e57d291ae814e5ba4de677594ef18a6a5e",
    "smoke-medium": "399f7aa65d5782789ec20df67436cce2f2932fd1a955d1b0f6d0856e3087c117",
    "smoke-init": "ce5e4a3e7b6f2d01a78d4ef24a24fd71af087ccafb1700f3401cf4e3b1697996",
}


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")


@pytest.mark.parametrize("name", list(DIGESTS))
def test_both_engines_charge_the_pinned_ledger(name):
    scenario = get_scenario(name)
    ref, col = (run_traced(scenario, None, backend=b) for b in BACKENDS)
    assert ref["strict_violations"] == 0
    assert col["strict_violations"] == 0
    assert ref["digest"] == DIGESTS[name]
    assert col["digest"] == DIGESTS[name]
    assert col["msf_weight"] == ref["msf_weight"]

"""The smoke scenarios under a seeded fault plan: same forest, pinned bill.

Each scenario runs under 2% drops and 1% duplicates plus a crash of
machine k//2 at the middle batch barrier, with a checkpoint every two
batches.  The crash lands before a batch, so recovery runs before the
dead machine would have to speak.  Recovery may add rounds but never
change the answer: the run must match the Kruskal oracle after every
batch and end on the fault-free MSF weight.  The recovery bill and the
chaos ledger digest are pinned exactly, so a recovery step that stops
charging its rounds fails here.
"""

import pytest

from repro.faults import CrashEvent, FaultPlan, run_chaos
from repro.trace.scenarios import get_scenario, run_traced

#: scenario -> (recovery overhead rounds, chaos ledger digest)
PINNED = {
    "smoke-small": (
        183, "7375c8642744941b760d5c56103019d68c1b40fb2efe7786235ed9a4c280c01b"),
    "smoke-medium": (
        632, "e5d97f2de4b13c140cedc98776ec0cf7ba4813a2d5f875eec46eab8ffaf9ee08"),
    "smoke-init": (
        309, "cd3d1c9bf576bd757efaa236ea5894c02418e522d7f8ea6a06e8490163090c66"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_recovery_keeps_the_forest_and_charges_the_pinned_bill(name):
    scenario = get_scenario(name)
    plan = FaultPlan(
        seed=scenario.seed + 1,
        drop=0.02,
        dup=0.01,
        crashes=(CrashEvent(batch=scenario.n_batches // 2,
                            machine=scenario.k // 2),),
    )
    chaos = run_chaos(scenario, plan, checkpoint_every=2)
    assert chaos["ok"], chaos["batches"]
    assert chaos["msf_weight"] == run_traced(scenario, None)["msf_weight"]
    assert chaos["recoveries"] == 1
    overhead, digest = PINNED[name]
    assert chaos["overhead_rounds"] == overhead
    assert chaos["digest"] == digest

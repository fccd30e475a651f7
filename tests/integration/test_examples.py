"""Every shipped example must run clean (guards against API drift)."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
EXAMPLES = sorted(
    f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    args = [sys.executable, os.path.join(EXAMPLES_DIR, script)]
    if script == "reproduce_paper.py":
        args.append("--skip-benches")  # reuse the committed tables
    proc = subprocess.run(
        args,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must narrate what they do"


def test_expected_example_set():
    assert {
        "quickstart.py",
        "network_churn.py",
        "social_stream.py",
        "lower_bound_demo.py",
        "model_comparison.py",
        "checkpoint_replay.py",
    } <= set(EXAMPLES)

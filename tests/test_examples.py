"""The sim-only examples run to completion.

Each example is a walkthrough a reader runs by hand; this keeps them
working as the API under them moves.  The asyncio and socket examples stay
out: the CLI smoke gates drive those backends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "example",
    [
        "quickstart",
        "byzantine_general",
        "transient_recovery",
        "message_driven_speed",
        "fault_timeline_suite",
    ],
)
def test_example_exits_zero(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr

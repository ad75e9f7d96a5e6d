"""Package layering: the deployed shape loads only what it runs."""

from __future__ import annotations

import doctest
import subprocess
import sys

import repro


def test_wire_path_loads_neither_harness_nor_extensions():
    # A fresh interpreter: this one has long since imported everything.
    probe = (
        "import sys\n"
        "import repro.runtime.socket_host, repro.service\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "repro.service.coordinator" in out
    assert not [
        m for m in out if m.startswith(("repro.harness", "repro.extensions"))
    ]


def test_quickstart_doctest_runs():
    result = doctest.testmod(repro)
    assert result.attempted > 0 and result.failed == 0

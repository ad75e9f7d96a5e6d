"""Package layering: the deployed shape loads only what it runs."""

from __future__ import annotations

import doctest
import subprocess
import sys

import repro


def _loaded_after(*modules: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after importing
    ``modules`` (this one has long since imported everything)."""
    probe = (
        "import sys\n"
        f"import {', '.join(modules)}\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()


def test_the_spawn_entry_loads_nothing_before_the_port_report():
    assert sorted(_loaded_after("repro.runtime.socket_entry")) == [
        "repro",
        "repro.runtime",
        "repro.runtime.socket_entry",
    ]


def test_the_wire_path_loads_no_simulator_faults_harness_or_obs():
    out = _loaded_after("repro.runtime.socket_host", "repro.service")
    assert "repro.service.coordinator" in out
    assert not [
        m
        for m in out
        if m.startswith(("repro.faults", "repro.harness", "repro.obs"))
        or m in ("repro.sim.engine", "repro.sim.clock", "repro.net.network")
    ]


def test_the_cli_module_loads_no_simulator_faults_or_harness():
    """Socket children spawned under ``python -m repro.cli`` re-import it."""
    out = _loaded_after("repro.cli")
    assert "repro.cli" in out
    assert not [
        m
        for m in out
        if m.startswith(("repro.faults", "repro.harness"))
        or m in ("repro.sim.engine", "repro.sim.clock", "repro.net.network")
    ]


def test_quickstart_doctest_runs():
    result = doctest.testmod(repro)
    assert result.attempted > 0 and result.failed == 0

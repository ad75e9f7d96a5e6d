"""The machine block every result carries."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess

from bench.spec import ROOT


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_block(seed: int) -> dict:
    from repro.runtime.framing import MSGPACK_IMPL

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "msgpack_impl": MSGPACK_IMPL,
        "uvloop": importlib.util.find_spec("uvloop") is not None,
        "git_commit": _git_commit(),
        "seed": seed,
    }

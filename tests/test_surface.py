"""The call-surface gate (``scripts/surface.py``) on a tiny fixture package."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "surface.py"

MODULE = '''
import os


def used():
    return 1


def in_thread():
    return 2


def in_child():
    os._exit(0)  # leaves without any exit hook running


def unused():
    def inner():
        return 3

    return inner


def allowed():
    return 4


class Box:
    def method(self):
        return 5
'''

DRIVER = '''
import multiprocessing
import threading

from fixpkg import mod

if __name__ == "__main__":
    mod.used()
    thread = threading.Thread(target=mod.in_thread)
    thread.start()
    thread.join()
    child = multiprocessing.get_context("spawn").Process(target=mod.in_child)
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
'''


def test_reports_uncalled_functions_and_stale_allowlist_entries(tmp_path):
    package = tmp_path / "src" / "fixpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    driver = tmp_path / "drive.py"
    driver.write_text(textwrap.dedent(DRIVER))
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "fixpkg/mod.py::allowed  # kept for the fixture\n"
        "fixpkg/mod.py::gone  # deleted long ago\n"
    )
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(tmp_path / "src"),
         "--allow", str(allow), "--", sys.executable, str(driver)],
        capture_output=True, text=True, timeout=120,
    )
    out = result.stdout
    assert result.returncode == 1, out + result.stderr
    assert "the command exited" not in out
    unlisted = {
        line.split(": ", 1)[1].split()[0]
        for line in out.splitlines()
        if "never called, not allowlisted" in line
    }
    # Called on the main thread, on a thread and in a spawned child that
    # left through os._exit: none is reported.  A def nested in an
    # uncalled function is covered by its outer one.
    assert unlisted == {"fixpkg/mod.py::unused", "fixpkg/mod.py::Box.method"}
    assert "stale allowlist entry (no such function): fixpkg/mod.py::gone" in out
    assert "3 never called" in out and "1 of them allowlisted" in out


def test_allowlists_combine_and_a_name_in_two_fails(tmp_path):
    package = tmp_path / "src" / "fixpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text("def allowed():\n    return 4\n")
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("fixpkg/mod.py::allowed  # kept for the fixture\n")
    command = [sys.executable, str(SCRIPT), "--src", str(tmp_path / "src"),
               "--allow", str(first), "--allow", str(second), "--",
               sys.executable, "-c", "import fixpkg.mod"]
    second.write_text("")
    result = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 of them allowlisted" in result.stdout
    second.write_text("fixpkg/mod.py::allowed  # listed again\n")
    result = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "second.txt:1: fixpkg/mod.py::allowed is listed twice" in result.stdout

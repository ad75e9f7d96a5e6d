"""Call-surface gate: fail on any ``src/`` function a run never calls.

    python scripts/surface.py                    # tier-1 under the collector
    python scripts/surface.py -- CMD ARGS...     # any other command instead
    python scripts/surface.py --src DIR --allow FILE [--allow FILE...] -- CMD ARGS...

CMD runs with a ``sitecustomize`` hook first on ``PYTHONPATH``, so every
Python process it starts loads the collector: the command itself, its
subprocesses, and every spawned or forkserver child (a forked child inherits
it).  The hook installs a ``sys.setprofile`` function on every thread that
records each code object from the source tree the first time it is called,
and writes that one line straight to the process's record file.  Nothing is
dumped at exit, so a child that leaves through ``os._exit`` (pool workers,
socket children) or is killed (the chaos and respawn tests) has already
reported what it ran.

The source tree is then compiled and every ``def`` in it listed.  The gate
fails on a never-called function that is not in the allowlist, and on an
allowlist entry that names no function.  A function nested inside a
never-called one is not listed on its own.  Allowlist lines read
``path::qualname  # reason``, ``path`` relative to the source root; the
reason is required, and names the caller outside the run when there is one
(``repro/cli.py::cmd_chaos  # gates.sh chaos_smoke``).  ``--allow`` may be
given more than once; the run then reads every file, and a name listed in
two of them is an error.

Test outcomes are not judged here (the tier-1 gate does that); a run whose
command exits non-zero is reported, and the call surface is still checked.
Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent

# The collector, loaded by every Python process that sees it on PYTHONPATH.
HOOK = '''\
import os
import sys
import threading


def _install(out, root):
    seen = set()
    fd = os.open(
        os.path.join(out, "%d.calls" % os.getpid()),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
    )

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(root):
                    line = "%s\\t%d\\t%s\\n" % (
                        code.co_filename, code.co_firstlineno, code.co_qualname
                    )
                    os.write(fd, line.encode())

    threading.setprofile(profile)
    sys.setprofile(profile)


if os.environ.get("SURFACE_OUT") and os.environ.get("SURFACE_ROOT"):
    _install(os.environ["SURFACE_OUT"], os.environ["SURFACE_ROOT"])
'''

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]


def defined(src: Path) -> list[tuple[str, int, str, int]]:
    """Every ``def`` under ``src``: (path, first line, qualname, lines)."""
    found = []

    def walk(code: CodeType, rel: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            # 0x2 = CO_NEWLOCALS: a function body, not a class body.
            if const.co_flags & 0x2 and not const.co_name.startswith("<"):
                last = max(
                    (end for _, end, _, _ in _positions(const) if end),
                    default=const.co_firstlineno,
                )
                found.append(
                    (rel, const.co_firstlineno, const.co_qualname,
                     last - const.co_firstlineno + 1)
                )
            walk(const, rel)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        walk(compile(path.read_text(), str(path), "exec"), rel)
    return found


def _positions(code: CodeType):
    yield from code.co_positions()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _positions(const)


def called(out: Path, src: Path) -> set[tuple[str, int, str]]:
    """The (path, first line, qualname) of every function the run called."""
    seen = set()
    for record in out.glob("*.calls"):
        for line in record.read_text().splitlines():
            filename, first, qualname = line.split("\t")
            rel = Path(filename).resolve().relative_to(src).as_posix()
            seen.add((rel, int(first), qualname))
    return seen


def read_allowlist(paths: list[Path]) -> tuple[dict[str, str], list[str]]:
    """``{path::qualname: reason}`` over every file, and the bad lines."""
    entries, bad = {}, []
    for path in paths:
        if not path.exists():
            continue
        for number, raw in enumerate(path.read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            name = name.strip()
            if "::" not in name or not reason.strip():
                bad.append(
                    f"{path.name}:{number}: no path::qualname or no # reason: "
                    f"{raw}"
                )
            elif name in entries:
                bad.append(f"{path.name}:{number}: {name} is listed twice")
            else:
                entries[name] = reason.strip()
    return entries, bad


def run(command: list[str], src: Path) -> tuple[int, set]:
    with tempfile.TemporaryDirectory(prefix="surface-") as tmp:
        tmp_path = Path(tmp)
        hook_dir, out = tmp_path / "hook", tmp_path / "out"
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(src)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env["SURFACE_OUT"] = str(out)
        env["SURFACE_ROOT"] = str(src) + os.sep
        status = subprocess.run(command, env=env).returncode
        return status, called(out, src)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument(
        "--allow", type=Path, action="append",
        help="allowlist file, repeatable (default: scripts/surface_allow.txt)",
    )
    parser.add_argument("command", nargs="*", help="default: tier-1 pytest")
    args = parser.parse_args(argv)
    src = args.src.resolve()

    status, seen = run(args.command or TIER1, src)
    functions = defined(src)
    allow, bad = read_allowlist(
        args.allow or [ROOT / "scripts" / "surface_allow.txt"]
    )

    uncalled = [f for f in functions if f[:3] not in seen]
    # A def nested in a never-called function cannot run either: list the
    # outermost one only.
    top = [f for f in uncalled if not _inside_uncalled(f, uncalled)]
    unlisted = [f for f in top if f"{f[0]}::{f[2]}" not in allow]
    names = {f"{f[0]}::{f[2]}" for f in functions}
    stale = sorted(name for name in allow if name not in names)

    print(
        f"\nsurface: {len(functions)} functions under {src.name}/, "
        f"{len(top)} never called ({sum(f[3] for f in top)} lines), "
        f"{len(top) - len(unlisted)} of them allowlisted"
    )
    if status != 0:
        print(f"surface: note: the command exited {status}")
    for rel, first, qualname, lines in unlisted:
        print(f"  never called, not allowlisted: {rel}::{qualname}  "
              f"(line {first}, {lines} lines)")
    for name in stale:
        print(f"  stale allowlist entry (no such function): {name}")
    for line in bad:
        print(f"  bad allowlist line: {line}")
    ok = not (unlisted or stale or bad)
    print("surface: OK" if ok else "surface: FAILED")
    return 0 if ok else 1


def _inside_uncalled(function, uncalled) -> bool:
    rel, _, qualname, _ = function
    return any(
        other[0] == rel and qualname.startswith(other[2] + ".<locals>.")
        for other in uncalled
    )


if __name__ == "__main__":
    sys.exit(main())

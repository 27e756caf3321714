"""Paths, the environment record and child-process handling shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and span files; emptied after every run.
WORK = HERE / ".work"

#: Longest any child process may live; a run must end within 180 s.
CHILD_TIMEOUT_S = 150.0
#: Fresh processes started per run to time ``setup_s`` (median reported).
SETUP_STARTS = 3


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one allowed CPU.

    The ``serve-zoo`` client and server then pass each request back and
    forth on one core rather than waking each other across cores, which
    made their latencies depend on what the other core was doing.  Every
    workload runs one busy process at a time, so one CPU is all it uses.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_dir() -> Path:
    path = WORK / uuid.uuid4().hex[:12]
    path.mkdir(parents=True)
    return path


def stop(process: subprocess.Popen) -> None:
    """Stop ``process`` (SIGTERM, then SIGKILL after 10 s) and wait for it."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    for stream in (process.stdin, process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def env_record() -> dict:
    """What ran where: core count, interpreter, numpy, realized kernel backend.

    The backend comes from ``numba_available()``, not from
    ``RunResult.backend``, which reports the requested backend.
    """
    import numpy

    from repro.sim.kernels.backend import numba_available

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": bool(numba_available()),
        "kernel_backend": "numba" if numba_available() else "numpy",
    }


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def payload_sha256(payload: dict) -> str:
    """SHA-256 of a result payload's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def last_json_line(text: str) -> dict:
    """The JSON object on the last non-empty line of a child's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child process printed nothing")
    return json.loads(lines[-1])

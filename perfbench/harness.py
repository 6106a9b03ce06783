"""Child-process plumbing and statistics for the suboplex benchmark.

Every CLI call runs in its own child process, one at a time, under a
1 GiB address-space cap set in the child only.  The child's own peak
RSS comes from ``os.wait4``; ``RUSAGE_CHILDREN`` would instead report
the running maximum over every earlier child.  A call that exits
nonzero, times out, is killed by the cap, or prints output other than
the expected output counts as failed and is charged the per-call time
limit, so fixing a failing call can only lower the reported times.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

MEMORY_CAP_BYTES = 1 << 30
CALL_LIMIT_S = 30.0

# Percentiles considered for the tail figure of a timing.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def child_env() -> dict[str, str]:
    """Environment for a child: this checkout's ``src`` and no field override.

    BLAS pools are pinned to one thread so a child uses at most two
    threads and its address space does not grow with the host's cores.
    """
    env = dict(os.environ)
    env.pop("SUBOPLEX_FIELD", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def _cap_address_space(limit: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@dataclass
class Outcome:
    """What one child did: exit status, wall time, own peak RSS, output."""

    seconds: float
    started: float
    rss_mb: float
    returncode: int | None  # None when the time limit killed it
    stdout: str
    stderr: str

    @property
    def timed_out(self) -> bool:
        return self.returncode is None


def run_child(
    argv: list[str],
    env: dict[str, str],
    out_dir: Path = OUT_DIR,
    limit_s: float = CALL_LIMIT_S,
    cap_bytes: int = MEMORY_CAP_BYTES,
) -> Outcome:
    """Run ``argv`` to completion under the cap and the time limit.

    Output goes to files, so a large stdout cannot block the child on a
    full pipe.  A pidfd lets the limit kill exactly this child, and
    ``os.wait4`` reaps it together with its own resource usage.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"child-{os.getpid()}.out"
    err_path = out_dir / f"child-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            cwd=str(ROOT),
            preexec_fn=lambda: _cap_address_space(cap_bytes),
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        killed = not poller.poll(limit_s * 1000.0)
        if killed:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.perf_counter()
    finally:
        os.close(pidfd)
    returncode = os.waitstatus_to_exitcode(status)
    proc.returncode = returncode  # reaped here, so Popen must not wait again
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Outcome(
        seconds=ended - started,
        started=started,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=None if killed else returncode,
        stdout=stdout,
        stderr=stderr,
    )


def charged_seconds(outcome: Outcome, ok: bool, limit_s: float = CALL_LIMIT_S) -> float:
    """A successful call costs its wall time; a failed one the full limit."""
    return outcome.seconds if ok else limit_s


def fail_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("fail share needs at least one attempted call")
    return failed / attempted


def tail_percentile(count: int) -> float | None:
    """Highest listed percentile with at least ten samples beyond it."""
    best = None
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            best = pct
    return best


def summarize(samples: list[float]) -> dict[str, float | int | None]:
    """Median, tail percentile and its value, and the sample count."""
    pct = tail_percentile(len(samples))
    tail = None
    if pct is not None:
        ordered = sorted(samples)
        tail = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]
    return {
        "median": statistics.median(samples),
        "tail_pct": pct,
        "tail": tail,
        "n": len(samples),
    }


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]

"""Work split into shares over forked workers, one per usable CPU.

`run_shares(share, k, what)` runs share(0) in the caller and share(1), ...,
share(k - 1) in workers made by os.fork, and returns the k results in share
order.  `bdprocess.simulate` splits its trajectory batches this way and
`polynomials.PolyTable.write_csv` its rows; this is the only place that
forks, gathers or reaps a worker.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from typing import Callable, TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, or 1 where the platform has
    no os.fork or os.sched_getaffinity (there is no setting)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_share(share: Callable[[int], T], s: int) -> tuple[int, int]:
    """Fork a worker that runs share(s) and sends back, down a pipe, one
    pickle: share(s)'s result, or the exception it raised.  Returns the
    worker's pid and the pipe's read end.

    The worker catches everything and leaves by os._exit, so it never
    unwinds into the caller's stack, atexit or buffered files.  Forking a
    process that holds threads (OpenBLAS starts its pool when numpy is
    imported) is safe here because a share calls only numpy ufuncs, sorts,
    formatting, pickle and os, never BLAS, logging or a lock another thread
    may hold; Python >= 3.12 warns about such a fork all the same.
    """
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
        )
        pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        try:
            payload = share(s)
        except BaseException as exc:
            payload = exc
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(payload, pipe)
        status = 0
    finally:
        os._exit(status)


def _gather(pid: int, read_end: int, what: str):
    """The result worker pid sent down read_end; closes read_end and reaps
    pid (killing it first unless its whole pickle arrived).  A worker's
    exception is raised here as its own type; ChildProcessError if the
    worker ended without sending one."""
    payload = lost = object()
    try:
        with os.fdopen(read_end, "rb") as pipe:
            payload = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        pass  # the worker died before its pickle was complete
    finally:
        if payload is lost:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if payload is lost:
        raise ChildProcessError(
            f"worker {pid} ended (wait status {status}) before sending its {what}"
        )
    if isinstance(payload, BaseException):
        raise payload
    return payload


def run_shares(share: Callable[[int], T], k: int, what: str) -> list[T]:
    """[share(0), ..., share(k - 1)], with share(0) run here after k - 1
    workers are forked for the others (k < 1 counts as 1, which forks
    nothing).  A worker's result must pickle; `what` names it in the
    error raised when a worker ends without sending it.
    A worker's exception is raised here as its own type, and every worker
    is reaped (on any error, including KeyboardInterrupt, killed first)
    before run_shares returns or raises."""
    workers: list[tuple[int, int]] = []  # (pid, pipe read end) not yet reaped
    try:
        for s in range(1, k):
            workers.append(_fork_share(share, s))
        results = [share(0)]
        while workers:
            results.append(_gather(*workers.pop(0), what))
    finally:
        for pid, read_end in workers:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results

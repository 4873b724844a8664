"""Keep the benchmark's CPU from halting while a workload runs.

On a virtual machine, a CPU with nothing to run halts, and the next
wake-up (a reply arriving on a socket, a timer) waits until the host
schedules the virtual CPU again.  On a busy host that wait is several
milliseconds, shows up as steal time, and set the tail latency of the
serving workloads rather than the program did.  A spinner at
``SCHED_IDLE`` priority on the same CPU keeps it from halting; the
guest scheduler runs it only when nothing else is runnable and preempts
it at once when something is.

Run as a script it spins until its parent process exits.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys


@contextlib.contextmanager
def running():
    """Spin on this process's CPUs for the duration of the block."""
    spinner = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(os.getpid())])
    try:
        yield
    finally:
        spinner.terminate()
        spinner.wait()


def _spin(parent: int) -> None:
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    _spin(int(sys.argv[1]))

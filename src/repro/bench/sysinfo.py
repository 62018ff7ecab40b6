"""Host metadata recorded in benchmark reports.

Benchmark numbers only reproduce on comparable hardware, and the core count
the kernel *allows* this process to use is often smaller than the count the
host *has* (container cpusets, ``taskset``, CI runners). Reports record both
so a reader can tell a slow machine from a restricted one.
"""

from __future__ import annotations

import os
import platform


def cpu_metadata() -> dict:
    """The host's CPU and this process's view of it.

    ``cpu_model`` is the processor name (``/proc/cpuinfo`` where readable,
    else :func:`platform.processor`) and ``machine`` the architecture;
    ``cpu_count`` is the host's logical core count; ``cpu_affinity`` is the
    size of this process's scheduling mask (``None`` where the platform has
    no ``sched_getaffinity``) — the number threaded benchmark sections
    actually scale with.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()

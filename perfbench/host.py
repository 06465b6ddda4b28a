"""Host context and resident-memory readings (Linux ``/proc``)."""

from __future__ import annotations

import os


def cpu_ticks() -> list[int]:
    """Cumulative ticks of all CPUs: user nice system idle iowait irq
    softirq steal."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def context() -> dict:
    """What the host looked like: cores, load, cumulative CPU ticks."""
    with open("/proc/loadavg") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": load,
        "cpu_ticks": cpu_ticks(),
    }


def steal_share(before: dict, after: dict) -> float:
    """Share of all CPU ticks between two contexts stolen by the
    hypervisor — other guests running on this host's cores."""
    delta = [b - a for a, b in zip(before["cpu_ticks"], after["cpu_ticks"])]
    total = sum(delta)
    return delta[7] / total if total else 0.0


def delivered_share(before: list[int], after: list[int]) -> float:
    """Share of the CPU time demanded between two :func:`cpu_ticks`
    readings that the hypervisor delivered: busy / (busy + steal).

    An idle CPU accrues no steal, so steal is time a busy CPU was
    denied.  ``wall * delivered_share`` is then the wall time the
    interval would have taken had nothing been stolen, however many
    CPUs were busy, if steal struck them alike.
    """
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6]
    return busy / (busy + d[7]) if busy + d[7] else 1.0


def cpu_seconds(pid: int) -> float:
    """CPU seconds run so far by ``pid``'s live threads (nanosecond
    ``schedstat`` counts; excludes time the hypervisor stole)."""
    total = 0
    base = f"/proc/{pid}/task"
    for tid in os.listdir(base):
        try:
            with open(f"{base}/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread exited between listing and reading
    return total / 1e9


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart ``pid``'s ``VmHWM`` from its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """``pid``'s RSS high-water mark since its last reset, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError(f"no VmHWM in /proc/{pid}/status")

"""Open- and closed-loop load generators that call ``service.submit`` directly.

The open loop sends request ``i`` when it is *due* (``start + i/rate``)
whatever the service is doing, and times each request from its due
time, so a stall also charges the wait it imposes on later requests.
It records how late the generator itself ran (send minus due).  The
closed loop keeps ``clients`` requests outstanding and measures how
many ok replies per second the service sustains.

Both split their phase into equal time windows and record, per window,
how much CPU time the hypervisor took from the benchmark's CPU
("steal"): on a shared host a window with heavy steal stalls every
request in flight, and the report keeps the quieter windows.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field

_CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """Seconds the hypervisor has taken from this process's (lowest)
    CPU since boot, from ``/proc/stat``; 0.0 where it is not reported."""
    prefix = f"cpu{min(os.sched_getaffinity(0))} "
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            for line in stat:
                if line.startswith(prefix):
                    fields = line.split()
                    return int(fields[8]) * _CLOCK_TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


@dataclass
class Outcome:
    """One request's reply and its client-side timestamps."""

    request: object
    response: object
    due: float
    sent: float
    done: float

    @property
    def ok(self) -> bool:
        return self.response.status == "ok"

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Phase:
    """Outcomes of one load phase that began at ``start`` and sent for ``seconds``."""

    start: float
    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    #: Seconds stolen from the CPU in each of the phase's equal windows.
    stolen: list[float] = field(default_factory=list)

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok]


async def _send(service, request, due: float, sent_log: dict) -> Outcome:
    sent = time.perf_counter()
    sent_log[request.id] = sent
    response = await service.submit(request)
    return Outcome(request, response, due, sent, time.perf_counter())


async def _sample_steal(phase: Phase, windows: int) -> None:
    """Read the stolen CPU time at each window boundary of ``phase``."""
    marks = [stolen_s()]
    for index in range(1, windows + 1):
        await asyncio.sleep(max(0.0, phase.start + index * phase.seconds / windows - time.perf_counter()))
        marks.append(stolen_s())
    phase.stolen = [b - a for a, b in zip(marks, marks[1:])]


async def open_loop(service, requests, rate: float, seconds: float, sent_log: dict, windows: int) -> Phase:
    """Send ``requests`` at a fixed ``rate`` for ``seconds``; wait for all."""
    start = time.perf_counter()
    phase = Phase(start, seconds)
    sampler = asyncio.create_task(_sample_steal(phase, windows))
    tasks = []
    for index, request in enumerate(requests):
        due = start + index / rate
        if due - start >= seconds:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_send(service, request, due, sent_log)))
    phase.outcomes = list(await asyncio.gather(*tasks))
    await sampler
    return phase


async def closed_loop(service, requests, clients: int, seconds: float, sent_log: dict, windows: int) -> Phase:
    """``clients`` callers, each sending its next request on reply."""
    start = time.perf_counter()
    feed = iter(requests)
    phase = Phase(start, seconds)
    sampler = asyncio.create_task(_sample_steal(phase, windows))

    async def client() -> None:
        while time.perf_counter() - start < seconds:
            request = next(feed)
            now = time.perf_counter()
            phase.outcomes.append(await _send(service, request, now, sent_log))

    await asyncio.gather(*(client() for _ in range(clients)), sampler)
    return phase

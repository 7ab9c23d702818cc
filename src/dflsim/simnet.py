"""Closed-form durations of synchronous communication rounds.

A round ends at a barrier, when the last silo has what it needs for the next
one, so its duration is a max over closed forms: the slowest overlay edge for
dfl, the slowest silo round trip through the server for sfl, local compute
for cll.  Nothing is simulated event by event.  The protocol layer
accumulates those durations on a Clock.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .topology import DelayParams, Overlay, cycle_time


@dataclass
class Clock:
    """Simulated wall-clock as a list of per-round durations.

    Totals are exact sums (math.fsum), so R rounds of a constant duration d
    report exactly R*d.
    """

    durations: list[float] = field(default_factory=list)

    def advance(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"round duration must be >= 0, got {duration}")
        self.durations.append(duration)

    @property
    def now(self) -> float:
        return math.fsum(self.durations)

    @property
    def rounds(self) -> int:
        return len(self.durations)


@dataclass(frozen=True)
class StarSpec:
    """Star layout for server-based rounds: per-silo compute times plus the
    (uniform) silo<->server link and the server's own aggregation time."""

    silo_compute_s: tuple[float, ...]
    server_latency_s: float
    server_bandwidth_Bps: float
    server_compute_s: float = 0.0


@dataclass(frozen=True)
class SingleSpec:
    """One-node layout: a round is just local compute."""

    compute_time_s: float


def simulate_round(layout, p: DelayParams) -> float:
    """Duration of one synchronous round on ``layout``, whose type names the
    strategy.

    Overlay (dfl): every silo sends its weights along each directed overlay
    edge; the round ends when the last message lands (``topology.cycle_time``).
    StarSpec (sfl): the worst silo round trip (uplink + downlink) plus one
    server aggregation.  SingleSpec (cll): local compute only.
    """
    if isinstance(layout, Overlay):
        return cycle_time(layout, p)
    if isinstance(layout, StarSpec):
        per_leg = p.model_size_bytes / layout.server_bandwidth_Bps
        down = layout.server_latency_s + per_leg
        # uplink, aggregation, downlink, summed in the order perfbench's gate uses
        return max(p.local_steps * tc + layout.server_latency_s + per_leg
                   + layout.server_compute_s + down for tc in layout.silo_compute_s)
    if isinstance(layout, SingleSpec):
        return p.local_steps * layout.compute_time_s
    raise ValueError(f"no round formula for a layout of type {type(layout).__name__}")

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


def simulate_round(overlay, p: DelayParams, mode: str) -> float:
    """Duration of one synchronous round under the given communication mode.

    dfl_ring: every silo sends its weights along each directed overlay edge;
    the round ends when the last message lands (``topology.cycle_time``).
    sfl_star: duration is the worst silo round trip (uplink + downlink) plus
    one server aggregation.  ``overlay`` must be a StarSpec.
    cll_single: local compute only.  ``overlay`` must be a SingleSpec.
    """
    if mode == "dfl_ring":
        if not isinstance(overlay, Overlay):
            raise ValueError("dfl_ring mode needs an Overlay")
        return cycle_time(overlay, p)
    if mode == "sfl_star":
        if not isinstance(overlay, StarSpec):
            raise ValueError("sfl_star mode needs a StarSpec")
        per_leg = p.model_size_bytes / overlay.server_bandwidth_Bps
        down = overlay.server_latency_s + per_leg
        # uplink, aggregation, downlink, summed in the order perfbench's gate uses
        return max(p.local_steps * tc + overlay.server_latency_s + per_leg
                   + overlay.server_compute_s + down for tc in overlay.silo_compute_s)
    if mode == "cll_single":
        if not isinstance(overlay, SingleSpec):
            raise ValueError("cll_single mode needs a SingleSpec")
        return p.local_steps * overlay.compute_time_s
    raise ValueError(f"unknown simulation mode {mode!r}")

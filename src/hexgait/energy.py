"""Declared linear energy model for the event-driven pipeline.

Counts input spikes at a fixed per-spike cost plus one pooled-filter
application per active frame. This is an accounting model, not a hardware
simulation; the per-leg-event figure is flagged when it departs the
expected ~10 nJ neighborhood by more than 2x.

A leg event is one burst of consecutive active I10 frames, whatever the
number of legs moving in it (see `cli._leg_event_counts`): a tripod step
is one leg event, not three.
"""
from __future__ import annotations

from .config import EnergyModel, Record

NOMINAL_PER_LEG_J = 10e-9


class EnergyReport(Record):
    items: tuple          # (label, count, unit_cost_j, subtotal_j)
    total_j: float
    per_leg_event_j: float
    n_leg_events: int
    flagged: bool

    def format(self) -> str:
        lines = ["# energy report"]
        for label, count, unit, subtotal in self.items:
            lines.append(f"{label}: {count} x {unit:.4g} J = {subtotal:.6g} J")
        lines.append(f"total: {self.total_j:.6g} J")
        if self.n_leg_events:
            lines.append(f"leg_events: {self.n_leg_events}")
            lines.append(f"per_leg_event: {self.per_leg_event_j:.6g} J")
        if self.flagged:
            lines.append(
                f"WARNING: per-leg-event total departs the nominal "
                f"{NOMINAL_PER_LEG_J:.2g} J by more than 2x")
        return "\n".join(lines) + "\n"


def energy_report(n_spikes: int, n_active_frames: int,
                  n_leg_events: int = 0,
                  model: EnergyModel = EnergyModel()) -> EnergyReport:
    """Itemized energy estimate; the total is the exact sum of the items."""
    if min(n_spikes, n_active_frames, n_leg_events) < 0:
        raise ValueError("counts must be >= 0")
    spike_j = n_spikes * model.energy_per_spike
    pool_j = n_active_frames * model.andpool_energy_per_frame
    total = spike_j + pool_j
    per_leg = total / n_leg_events if n_leg_events else 0.0
    flagged = bool(n_leg_events) and not (
        NOMINAL_PER_LEG_J / 2 <= per_leg <= NOMINAL_PER_LEG_J * 2)
    items = (
        ("input_spikes", n_spikes, model.energy_per_spike, spike_j),
        ("andpool_frames", n_active_frames, model.andpool_energy_per_frame, pool_j),
    )
    return EnergyReport(items=items, total_j=total, per_leg_event_j=per_leg,
                        n_leg_events=n_leg_events, flagged=flagged)

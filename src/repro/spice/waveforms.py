"""Time-domain source waveforms for transient analysis.

A waveform is a callable ``value(t)`` plus an optional list of
*breakpoints* -- times where the waveform has a corner -- that the
transient engine must land a timestep on exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ModelError


@dataclass(frozen=True)
class Waveform:
    """A time-dependent source value.

    ``breakpoints`` is the static corner list; periodic waveforms with
    an unbounded corner sequence supply ``breakpoint_fn`` instead,
    which generates the corners intersecting a given run window on
    demand (so no fixed-length corner table can run out on long
    transients, the way :func:`pulse_wave`'s old 64-period table did).
    """

    func: Callable[[float], float]
    breakpoints: tuple[float, ...] = ()
    description: str = "waveform"
    breakpoint_fn: Callable[[float], tuple[float, ...]] | None = None

    def __call__(self, t: float) -> float:
        return self.func(t)

    def breakpoints_within(self, t_stop: float) -> tuple[float, ...]:
        """Corners strictly inside ``(0, t_stop)``, sorted.

        Corners at or beyond ``t_stop`` are dropped *here*, before the
        transient engine's breakpoint merge, so a pulse whose later
        periods extend past the stop time can never force a spurious
        pre-edge ``dt`` shrink on the final step.
        """
        corners = (self.breakpoint_fn(t_stop)
                   if self.breakpoint_fn is not None
                   else self.breakpoints)
        return tuple(sorted(t for t in corners if 0.0 < t < t_stop))


def _const_value(value: float, t: float) -> float:
    """Module-level constant evaluator: a ``functools.partial`` of this
    pickles, where the obvious lambda would not -- and DC circuits (the
    planned Monte-Carlo metrics above all) must ship to worker
    processes whole."""
    return value


def dc_wave(value: float) -> Waveform:
    """A constant source."""
    return Waveform(func=functools.partial(_const_value, value),
                    description=f"dc({value})")


def step_wave(before: float, after: float, t_step: float,
              t_rise: float = 0.0) -> Waveform:
    """A single step from ``before`` to ``after`` at ``t_step``."""
    if t_rise < 0.0:
        raise ModelError("t_rise must be >= 0")

    def value(t: float) -> float:
        if t <= t_step:
            return before
        if t_rise > 0.0 and t < t_step + t_rise:
            return before + (after - before) * (t - t_step) / t_rise
        return after

    points = (t_step,) if t_rise == 0.0 else (t_step, t_step + t_rise)
    return Waveform(func=value, breakpoints=points,
                    description=f"step({before}->{after}@{t_step})")


def pulse_wave(low: float, high: float, delay: float, rise: float,
               fall: float, width: float, period: float) -> Waveform:
    """SPICE-style periodic pulse."""
    if period <= 0.0 or width < 0.0 or rise < 0.0 or fall < 0.0:
        raise ModelError("pulse timing parameters must be non-negative, "
                         "period positive")
    if rise + width + fall > period:
        raise ModelError("rise + width + fall exceeds the period")

    def value(t: float) -> float:
        if t < delay:
            return low
        tau = (t - delay) % period
        if tau < rise:
            return low + (high - low) * (tau / rise) if rise > 0 else high
        if tau < rise + width:
            return high
        if tau < rise + width + fall:
            frac = (tau - rise - width) / fall if fall > 0 else 1.0
            return high + (low - high) * frac
        return low

    def corners_within(t_stop: float) -> tuple[float, ...]:
        # Every period whose start lies inside the window contributes
        # its four corners; corners past t_stop are filtered by
        # breakpoints_within.  Generated on demand so arbitrarily long
        # runs land every edge (a static table has a last entry).
        corners = []
        k = 0
        while True:
            t0 = delay + k * period
            if t0 >= t_stop:
                break
            corners.extend([t0, t0 + rise, t0 + rise + width,
                            t0 + rise + width + fall])
            k += 1
        return tuple(corners)

    # The static table keeps the historical first-64-period corners
    # for direct consumers; the engine uses corners_within.
    return Waveform(func=value, breakpoints=corners_within(delay + 64 * period),
                    description=f"pulse({low},{high},T={period})",
                    breakpoint_fn=corners_within)


def sine_wave(offset: float, amplitude: float, frequency: float,
              delay: float = 0.0, phase_deg: float = 0.0) -> Waveform:
    """offset + amplitude * sin(2 pi f (t - delay) + phase)."""
    if frequency <= 0.0:
        raise ModelError(f"frequency must be positive, got {frequency}")
    phase = math.radians(phase_deg)

    def value(t: float) -> float:
        if t < delay:
            return offset + amplitude * math.sin(phase)
        return offset + amplitude * math.sin(
            2.0 * math.pi * frequency * (t - delay) + phase)

    return Waveform(func=value,
                    description=f"sine({offset},{amplitude},{frequency})")


def pwl_wave(points: Sequence[tuple[float, float]]) -> Waveform:
    """Piecewise-linear waveform through ``(time, value)`` points."""
    if len(points) < 1:
        raise ModelError("pwl needs at least one point")
    times = [p[0] for p in points]
    if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
        raise ModelError("pwl times must be strictly increasing")
    pts = tuple((float(t), float(v)) for t, v in points)

    def value(t: float) -> float:
        if t <= pts[0][0]:
            return pts[0][1]
        for (t1, v1), (t2, v2) in zip(pts, pts[1:]):
            if t <= t2:
                return v1 + (v2 - v1) * (t - t1) / (t2 - t1)
        return pts[-1][1]

    return Waveform(func=value, breakpoints=tuple(t for t, _v in pts),
                    description=f"pwl({len(pts)} pts)")

"""Front extraction, speed fitting, and structural diagnostics on runs.

The invasion front at time t is where a profile crosses a fixed density
level; tracking its rightmost crossing over time and fitting a line to the
late samples gives the empirical spreading speed, to be compared with the
dispersion prediction.  The remaining helpers check the structural
properties runs are expected to obey: componentwise ordering between two
evolutions and distance from the invaded steady state (nu/mu, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridMismatchError, NoCrossingError, TooFewSamplesError
from .params import ModelParams
from .simulate import FieldState, Grid, RunRecord, _write_csv

__all__ = [
    "Channel",
    "FrontSeries",
    "SpeedEstimate",
    "front_position",
    "front_series",
    "fit_speed",
    "is_ordered",
    "steady_error",
    "write_front_series_csv",
    "write_speed_estimate_csv",
]


class Channel(Enum):
    ROAD = "road"
    FIELD_TRACE = "field_trace"


@dataclass(frozen=True)
class FrontSeries:
    """Time-stamped rightmost level crossings of one profile channel."""

    times: np.ndarray
    positions: np.ndarray
    threshold: float
    channel: Channel

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SpeedEstimate:
    """Least-squares line through the late part of a front series."""

    speed: float
    intercept: float
    fit_window: tuple[float, float]
    residual_rms: float


def front_position(profile: np.ndarray, grid: Grid, threshold: float) -> float:
    """Rightmost x where the profile crosses the threshold level.

    Scans from x_max inward for the first node pair with profile >= threshold
    on the left and < threshold on the right, then interpolates linearly.
    Translation-equivariant: shifting the profile by k nodes shifts the
    result by exactly k*dx.  Raises NoCrossingError for profiles entirely
    above or entirely below the level.
    """
    p = np.asarray(profile, dtype=float)
    if p.shape != (grid.nx,):
        raise GridMismatchError(f"profile shape {p.shape} does not match grid ({grid.nx},)")
    above = p >= threshold
    for i in range(grid.nx - 2, -1, -1):
        if above[i] and not above[i + 1]:
            x = grid.x()
            frac = (p[i] - threshold) / (p[i] - p[i + 1])
            return float(x[i] + frac * grid.dx)
    raise NoCrossingError(
        f"profile does not cross {threshold} with a decreasing tail "
        f"(range [{p.min()}, {p.max()}])"
    )


def front_series(
    record: RunRecord,
    grid: Grid,
    channel: Channel = Channel.ROAD,
    threshold: float = 0.5,
) -> FrontSeries:
    """Track the rightmost crossing through a run's snapshots.

    Snapshots without a crossing (before the front has formed, or after the
    level is no longer reached) are skipped rather than raising.
    """
    snaps = (
        record.road_profile_snapshots
        if channel is Channel.ROAD
        else record.field_trace_snapshots
    )
    times, positions = [], []
    for t, profile in snaps:
        try:
            xf = front_position(profile, grid, threshold)
        except NoCrossingError:
            continue
        times.append(t)
        positions.append(xf)
    return FrontSeries(
        times=np.asarray(times),
        positions=np.asarray(positions),
        threshold=threshold,
        channel=channel,
    )


def fit_speed(series: FrontSeries, window_fraction: float = 0.5) -> SpeedEstimate:
    """Ordinary least squares slope of x_front(t) over the trailing window.

    Only samples with t >= (1 - window_fraction) * t_last enter the fit;
    the discarded head is the front-formation transient.  Raises
    TooFewSamplesError below 10 samples in the window.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must be in (0, 1]")
    if len(series) == 0:
        raise TooFewSamplesError("front series is empty")
    t_last = float(series.times[-1])
    t_lo = (1.0 - window_fraction) * t_last
    mask = series.times >= t_lo
    t = series.times[mask]
    x = series.positions[mask]
    if len(t) < 10:
        raise TooFewSamplesError(f"only {len(t)} samples with t >= {t_lo}; need at least 10")
    slope, intercept = np.polyfit(t, x, 1)
    resid = x - (slope * t + intercept)
    return SpeedEstimate(
        speed=float(slope),
        intercept=float(intercept),
        fit_window=(float(t[0]), float(t[-1])),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def is_ordered(a: FieldState, b: FieldState) -> bool:
    """True iff a <= b componentwise in both the road and field densities."""
    if a.u.shape != b.u.shape or a.v.shape != b.v.shape:
        raise GridMismatchError(
            f"states live on different grids: {a.u.shape}/{a.v.shape} vs {b.u.shape}/{b.v.shape}"
        )
    return bool(np.all(a.u <= b.u) and np.all(a.v <= b.v))


def steady_error(
    state: FieldState,
    params: ModelParams,
    grid: Grid,
    window_halfwidth: float,
) -> tuple[float, float]:
    """Sup distance from the invaded state (nu/mu, 1) on a central window.

    Returns (sup |u - nu/mu| over |x| <= w,  sup |v - 1| over |x| <= w and
    0 <= y <= w).  The window must sit inside the grid.
    """
    if window_halfwidth <= 0.0:
        raise ValueError("window_halfwidth must be positive")
    x, y = grid.x(), grid.y()
    if -window_halfwidth < x[0] or window_halfwidth > x[-1] or window_halfwidth > y[-1]:
        raise ValueError("window extends beyond the grid")
    xmask = np.abs(x) <= window_halfwidth
    ymask = y <= window_halfwidth
    eu = float(np.max(np.abs(state.u[xmask] - params.nu / params.mu)))
    ev = float(np.max(np.abs(state.v[np.ix_(xmask, ymask)] - 1.0)))
    return (eu, ev)


def write_front_series_csv(series: FrontSeries, path) -> None:
    _write_csv(path, "t,x_front", zip(series.times, series.positions))


def write_speed_estimate_csv(estimate: SpeedEstimate, path) -> None:
    _write_csv(path, "speed,intercept,residual_rms,t_lo,t_hi",
               [(estimate.speed, estimate.intercept, estimate.residual_rms, *estimate.fit_window)])

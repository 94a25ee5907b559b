"""Front extraction, speed fitting, and structural diagnostics on runs.

The invasion front at time t is where a profile crosses a fixed density
level; tracking its rightmost crossing over time and fitting a line to the
late samples gives the empirical spreading speed, to be compared with the
dispersion prediction.  A run's snapshots are the arrays of its
``RunRecord``, one row per snapshot, and a ``Channel`` names the array.
One crossing finder works along the rows of a whole array at once, for
one profile (``front_position``) or for every snapshot (``front_series``).
The remaining helpers check the structural properties runs are expected
to obey: componentwise ordering between two evolutions and distance from
the invaded steady state (nu/mu, 1).
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


def _crossings(profiles: np.ndarray, grid: Grid, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Rightmost level crossing in each row of a (n, nx) profile array.

    A crossing is a node pair with profile >= threshold on the left and
    < threshold on the right, interpolated linearly.  Returns the indices
    of the rows that cross and their crossing positions; rows without a
    crossing are left out.  Raises GridMismatchError when a row is not nx
    long and ValueError when a profile holds a nan or an infinity.
    """
    if profiles.shape[1:] != (grid.nx,):
        raise GridMismatchError(
            f"profile shape {profiles.shape[1:]} does not match grid ({grid.nx},)")
    if not np.isfinite(profiles).all():
        raise ValueError("profile holds a non-finite value")
    above = profiles >= threshold
    cross = above[:, :-1] & ~above[:, 1:]
    rows = np.flatnonzero(cross.any(axis=1))
    # the last crossing of a row is the first one of the reversed row
    i = grid.nx - 2 - np.argmax(cross[rows, ::-1], axis=1)
    left, right = profiles[rows, i], profiles[rows, i + 1]
    frac = (left - threshold) / (left - right)
    return rows, grid.x()[i] + frac * grid.dx


def front_position(profile: np.ndarray, grid: Grid, threshold: float) -> float:
    """Rightmost x where the profile crosses the threshold level.

    The rightmost node pair with profile >= threshold on the left and
    < threshold on the right, interpolated linearly.  Translation-equivariant:
    shifting the profile by k nodes shifts the result by exactly k*dx.
    Raises NoCrossingError for profiles entirely above or entirely below
    the level, and ValueError for a profile holding a nan or an infinity.
    """
    p = np.asarray(profile, dtype=float)
    rows, positions = _crossings(p[None], grid, threshold)
    if not len(rows):
        raise NoCrossingError(
            f"profile does not cross {threshold} with a decreasing tail "
            f"(range [{p.min()}, {p.max()}])"
        )
    return float(positions[0])


def front_series(
    record: RunRecord,
    grid: Grid,
    channel: Channel = Channel.ROAD,
    threshold: float = 0.5,
) -> FrontSeries:
    """Track the rightmost crossing through a run's snapshots, all in one call.

    The channel names the record's profile array.  Snapshots without a
    crossing (before the front has formed, or after the level is no longer
    reached) are skipped rather than raising.
    """
    rows, positions = _crossings(getattr(record, channel.value), grid, threshold)
    return FrontSeries(times=record.times[rows], positions=positions,
                       threshold=threshold, channel=channel)


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

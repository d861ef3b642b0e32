"""Wind ingestion, daily aggregation, and smooth evaluation.

Measured wind arrives as hourly CSV records ``timestamp,u_mps,v_mps`` with
ISO-8601 timestamps (or plain fractional day numbers).  The processing chain
is: parse and sort, aggregate to daily means, then evaluate anywhere in time
with :meth:`WindSeries.at`.  Each series builds one Akima spline through both
components when it is made; evaluation caps the speed at 5 m/s and converts
the result from m/s to m/day for the advection terms.  A synthetic
oscillatory wind with the same ``at`` interface is provided for idealized
runs, and :func:`as_wind` turns any wind argument into the ``t -> (u, v)``
evaluator that the solvers call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np
from scipy.interpolate import Akima1DInterpolator

__all__ = [
    "MPS_TO_MPD",
    "SPEED_CAP_MPS",
    "WindSeries",
    "SyntheticWind",
    "parse_wind_records",
    "aggregate_daily",
    "as_wind",
]

#: Conversion from the ingested m/s to the PDE's m/day.
MPS_TO_MPD = 86400.0

#: Interpolated speeds are capped at this many m/s (before conversion),
#: direction preserved.
SPEED_CAP_MPS = 5.0


@dataclass(frozen=True)
class WindSeries:
    """Timestamped horizontal wind components in m/s.

    ``times`` are days since the start of the series' first calendar day,
    strictly increasing.  The interpolant of both components is built here,
    once: an Akima spline for 3 or more records; one or two records are
    held constant or joined by a straight line in :meth:`at`.
    """

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    _spline: Akima1DInterpolator | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if times.size < 1:
            raise ValueError("a wind series needs at least 1 record")
        if not (times.size == u.size == v.size):
            raise ValueError("times, u, v must have equal length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(u)) or not np.all(np.isfinite(v)):
            raise ValueError("wind records must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        spline = Akima1DInterpolator(times, np.column_stack([u, v])) if times.size >= 3 else None
        object.__setattr__(self, "_spline", spline)

    def __len__(self) -> int:
        return self.times.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def at(self, t) -> tuple:
        """Interpolated wind at day ``t``, in m/day.

        ``t`` is clamped to the series span; the speed is capped at
        :data:`SPEED_CAP_MPS` with the direction preserved, then scaled by
        :data:`MPS_TO_MPD`.  A scalar ``t`` gives two floats, an array two
        arrays of its shape.
        """
        t = np.clip(np.asarray(t, dtype=float), *self.span)
        if self._spline is None:
            u, v = np.interp(t, self.times, self.u), np.interp(t, self.times, self.v)
        else:
            uv = self._spline(t)
            u, v = uv[..., 0], uv[..., 1]
        factor = SPEED_CAP_MPS / np.maximum(np.hypot(u, v), SPEED_CAP_MPS)
        u = u * factor * MPS_TO_MPD
        v = v * factor * MPS_TO_MPD
        if u.ndim == 0:
            return float(u), float(v)
        return u, v


def _parse_time(token: str, line_no: int) -> tuple[float, datetime | None]:
    """A timestamp token as (raw value, datetime or None for numeric input)."""
    try:
        return float(token), None
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(token)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad timestamp {token!r}") from exc
    return math.nan, stamp


def parse_wind_records(source) -> WindSeries:
    """Parse a CSV stream ``timestamp,u_mps,v_mps`` into a :class:`WindSeries`.

    The header row is required.  Timestamps are ISO-8601 or fractional day
    numbers; ISO times are converted to days since midnight of the first
    record's calendar day.  Rows are sorted; duplicate timestamps are
    rejected.

    Raises
    ------
    TypeError
        If ``source`` is not an open text stream (a path, for instance).
    ValueError
        On a malformed row (with its line number) or fewer than 2 records.
    """
    if not hasattr(source, "readline"):
        raise TypeError(f"expected an open text stream, got {type(source).__name__}; "
                        "open the file and pass the stream")
    header = source.readline()
    if not header or "timestamp" not in header.lower():
        raise ValueError("missing header row (expected: timestamp,u_mps,v_mps)")

    numeric_times: list[float] = []
    stamps: list[datetime | None] = []
    us: list[float] = []
    vs: list[float] = []
    for line_no, raw in enumerate(source, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        t_num, stamp = _parse_time(parts[0], line_no)
        try:
            u_val, v_val = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad wind component") from exc
        numeric_times.append(t_num)
        stamps.append(stamp)
        us.append(u_val)
        vs.append(v_val)

    if len(us) < 2:
        raise ValueError("need at least 2 wind records")

    if any(stamp is not None for stamp in stamps):
        if any(stamp is None for stamp in stamps):
            raise ValueError("mix of ISO timestamps and numeric day values")
        origin = min(stamps).replace(hour=0, minute=0, second=0, microsecond=0)
        times = np.array([(s - origin).total_seconds() / 86400.0 for s in stamps])
    else:
        times = np.array(numeric_times)

    order = np.argsort(times, kind="stable")
    times = times[order]
    if np.any(np.diff(times) == 0):
        dup = times[np.flatnonzero(np.diff(times) == 0)[0]]
        raise ValueError(f"duplicate timestamp at t={dup:g} days")
    return WindSeries(times, np.array(us)[order], np.array(vs)[order])


def aggregate_daily(series: WindSeries) -> WindSeries:
    """Daily arithmetic means, one record per calendar day at its centre.

    Days without records inherit the previous day's mean (with a warning).
    A series confined to a single calendar day collapses to one record.
    """
    days = np.floor(series.times).astype(int)
    out_t, out_u, out_v = [], [], []
    prev = None
    for day in range(days.min(), days.max() + 1):
        mask = days == day
        if mask.any():
            prev = (series.u[mask].mean(), series.v[mask].mean())
        else:
            warnings.warn(f"day {day} has no wind records; carrying previous day forward")
        out_t.append(day + 0.5)
        out_u.append(prev[0])
        out_v.append(prev[1])
    return WindSeries(np.array(out_t), np.array(out_u), np.array(out_v))


@dataclass(frozen=True)
class SyntheticWind:
    """Oscillatory wind ``amplitude * (sin, cos)(2 pi t / period + phase)``.

    Amplitude is specified directly in m/day (this is an idealized forcing,
    not a measurement), so no unit conversion or speed cap applies.
    """

    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.period < math.inf and np.isfinite([self.amplitude, self.phase]).all()):
            raise ValueError(f"need a finite positive period and a finite amplitude and phase, "
                             f"got {self.amplitude!r}, {self.period!r}, {self.phase!r}")

    def at(self, t) -> tuple:
        angle = 2.0 * math.pi * np.asarray(t, dtype=float) / self.period + self.phase
        u = self.amplitude * np.sin(angle)
        v = self.amplitude * np.cos(angle)
        if u.ndim == 0:
            return float(u), float(v)
        return u, v


def as_wind(wind):
    """Normalize None / WindSeries / SyntheticWind / callable to ``t -> (u, v)``.

    Solvers call the result each step; ``None`` means still water.
    """
    if wind is None:
        return lambda t: (0.0, 0.0)
    if hasattr(wind, "at"):
        return wind.at
    if callable(wind):
        return wind
    raise TypeError(f"cannot interpret {type(wind).__name__} as wind")

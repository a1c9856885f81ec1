"""Time-series recording and export.

:class:`Timeline` records named scalar series against simulated time
and exports them as CSV/JSON for offline plotting; window helpers
aggregate raw event times into binned statistics.  It is a standalone
utility: the figure benches compute their series directly and no run
path imports it.
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Series:
    """One named time series: (time, value) samples in arrival order."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        # Coerce to builtin floats at the door: callers routinely hand in
        # numpy scalars, whose repr ("np.float64(1.5)" under numpy >= 2)
        # breaks the CSV round-trip and whose 32-bit variants are not
        # JSON-serialisable.  Coercion also keeps the round-trip exact —
        # repr(float) parses back bit-identically.
        time = float(time)
        value = float(value)
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"series {self.name!r}: time {time} before last {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def window_mean(self, window: float, duration: float | None = None) -> "Series":
        """Aggregate into per-window means (Fig. 9's 15 s RT windows)."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not self.times:
            return Series(f"{self.name}/mean{window:g}s")
        end = duration if duration is not None else self.times[-1] + 1e-9
        n_bins = max(int(np.ceil(end / window)), 1)
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins)
        for t, v in zip(self.times, self.values):
            b = min(int(t / window), n_bins - 1)
            sums[b] += v
            counts[b] += 1
        out = Series(f"{self.name}/mean{window:g}s")
        for b in range(n_bins):
            if counts[b] > 0:
                out.record((b + 0.5) * window, sums[b] / counts[b])
        return out

    def percentile(self, q: float) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return float(np.percentile(self.values, q))

    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return float(np.mean(self.values))


class Timeline:
    """A bundle of named series sharing one simulated clock."""

    def __init__(self):
        self._series: dict[str, Series] = {}

    def series(self, name: str) -> Series:
        """Get (creating on first use) the series called ``name``."""
        if name not in self._series:
            self._series[name] = Series(name)
        return self._series[name]

    def record(self, name: str, time: float, value: float) -> None:
        self.series(name).record(time, value)

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, path: str | pathlib.Path) -> None:
        """Long-format CSV: series,time,value (one row per sample)."""
        path = pathlib.Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "time", "value"])
            for name in self.names():
                s = self._series[name]
                for t, v in zip(s.times, s.values):
                    writer.writerow([name, repr(t), repr(v)])

    @classmethod
    def from_csv(cls, path: str | pathlib.Path) -> "Timeline":
        path = pathlib.Path(path)
        timeline = cls()
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["series", "time", "value"]:
                raise ValueError(f"{path} is not a Timeline CSV (header {header})")
            for name, t, v in reader:
                timeline.record(name, float(t), float(v))
        return timeline

    def to_json(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        payload = {
            name: {"times": s.times, "values": s.values}
            for name, s in self._series.items()
        }
        path.write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: str | pathlib.Path) -> "Timeline":
        payload = json.loads(pathlib.Path(path).read_text())
        timeline = cls()
        for name, data in payload.items():
            for t, v in zip(data["times"], data["values"]):
                timeline.record(name, t, v)
        return timeline

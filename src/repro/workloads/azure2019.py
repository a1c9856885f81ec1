"""Streaming ingestion of the real AzureFunctionsDataset2019 format.

The published Microsoft Azure Functions 2019 dataset (the canonical
serverless trace, used by DeepServe / HydraServe / the FlexPipe paper's
workload section) ships as fourteen day-files:

* ``invocations_per_function_md.anon.d01.csv`` .. ``d14.csv`` — one row
  per function (``HashOwner,HashApp,HashFunction,Trigger``) followed by
  1440 per-minute invocation counts (day ``d`` covers absolute minutes
  ``[(d-1)*1440, d*1440)``);
* ``function_durations_percentiles.anon.dNN.csv`` — per-function
  execution-time statistics (``Average``/``Count``/``Minimum``/
  ``Maximum`` plus ``percentile_Average_{0,1,25,50,75,99,100}``, ms);
* ``app_memory_percentiles.anon.dNN.csv`` — per-app allocated-memory
  statistics (``SampleCount``, ``AverageAllocatedMb`` plus
  ``AverageAllocatedMb_pct{1,5,25,50,75,95,99,100}``).

This module ingests that layout at production scale without ever holding
it in memory:

* :func:`load_window` streams the day-files twice — pass one keeps one
  running total per function (for volume ranking), pass two keeps only
  the top-K selected functions' per-minute counts inside the requested
  window — so peak memory is ``O(functions + top_k * window_minutes)``
  regardless of how many day-files or invocations the window spans.
  Malformed rows are skipped (and counted), missing minutes/day-files
  read as zero invocations, and duplicate function hashes accumulate
  into one function.
* :func:`map_functions_to_zoo` assigns the ranked functions onto the
  synthetic ``FLEET-<rank>-<size>g`` model namespace with a seeded,
  volume-tiered rule: heavy functions land on small always-hot models,
  the long tail lands on larger cold models (the dataset's memory
  percentiles nudge sizes inside each tier; its duration averages pick
  each tenant's decode length).
* :func:`iter_minted_stamps` mints arrival timestamps as a *generator*
  with vectorised intra-minute spreading (``np.linspace`` over each
  minute, the standard way to replay minute-binned FaaS traces
  deterministically), so a multi-hour window with millions of requests
  streams through :class:`~repro.workloads.arrivals.ReplayArrivals`
  one minute's worth of stamps at a time.
* :func:`synthesize_2019_dataset` / :func:`write_2019_dataset` produce a
  deterministic synthetic dataset *in the real format* (Zipf volume
  skew, diurnal minute envelope, duration/memory tables), so CI and the
  bundled ``azure-replay-2019`` scenario never download anything.

Fetching the real dataset is documented in ``docs/workloads.md``; point
:class:`Azure2019Source.dataset_dir` at the unpacked directory and the
same code path replays it.
"""

from __future__ import annotations

import csv
import hashlib
import pathlib
import re
import sys
from dataclasses import dataclass, field

import numpy as np

#: Minute bins per day-file; day ``d`` covers absolute minutes
#: ``[(d-1)*MINUTES_PER_DAY, d*MINUTES_PER_DAY)``.
MINUTES_PER_DAY = 1440
BIN_SECONDS = 60.0

INVOCATIONS_PATTERN = "invocations_per_function_md.anon.d{day:02d}.csv"
DURATIONS_PATTERN = "function_durations_percentiles.anon.d{day:02d}.csv"
MEMORY_PATTERN = "app_memory_percentiles.anon.d{day:02d}.csv"
_DAY_RE = re.compile(r"\.d(\d\d)\.csv$")

INVOCATION_HEADER = ["HashOwner", "HashApp", "HashFunction", "Trigger"]


# ----------------------------------------------------------------------
# Source description (lives on ScenarioSpec, JSON round-trippable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Azure2019Source:
    """Where and how to read a 2019-format trace window.

    ``dataset_dir`` — directory holding the day-files; empty string means
    the bundled deterministic synthetic fixture (no download, identical
    bytes everywhere).  ``[start_minute, end_minute)`` is the absolute
    minute window across day-files; ``top_k`` caps the fleet at the K
    highest-volume functions inside the window; ``zoo_seed`` seeds the
    volume-tiered function-to-model assignment.
    """

    dataset_dir: str = ""
    start_minute: int = 0
    end_minute: int = 60
    top_k: int = 50
    zoo_seed: int = 0

    def __post_init__(self) -> None:
        if self.start_minute < 0:
            raise ValueError(
                f"start_minute cannot be negative: {self.start_minute}"
            )
        if self.end_minute <= self.start_minute:
            raise ValueError(
                f"window must be non-empty: "
                f"[{self.start_minute}, {self.end_minute})"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1: {self.top_k}")

    @property
    def window_minutes(self) -> int:
        return self.end_minute - self.start_minute

    @property
    def window_seconds(self) -> float:
        return self.window_minutes * BIN_SECONDS

    @property
    def days(self) -> range:
        """1-based day-file indices the window overlaps."""
        first = self.start_minute // MINUTES_PER_DAY + 1
        last = (self.end_minute - 1) // MINUTES_PER_DAY + 1
        return range(first, last + 1)


# ----------------------------------------------------------------------
# Streamed parsing
# ----------------------------------------------------------------------
@dataclass
class ParseStats:
    """What the streaming parser saw (surfaced for tests and reports)."""

    rows: int = 0
    malformed: int = 0
    duplicates: int = 0
    missing_files: int = 0


@dataclass(frozen=True)
class FunctionWindow:
    """One selected function's slice of the trace window."""

    key: str  # "HashOwner/HashApp/HashFunction"
    owner: str
    app: str
    function: str
    trigger: str
    counts: np.ndarray  # per-minute invocation counts inside the window
    avg_duration_ms: float | None = None
    avg_memory_mb: float | None = None

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def mean_rate(self) -> float:
        """Mean req/s over the window at real-time playback."""
        return self.total / (self.counts.shape[0] * BIN_SECONDS)

    @property
    def peak_minute(self) -> int:
        """Largest single-minute count (the mint buffer bound)."""
        return int(self.counts.max()) if self.counts.size else 0


@dataclass(frozen=True)
class Azure2019Window:
    """A loaded window: functions ranked by invocation volume (desc)."""

    source: Azure2019Source
    functions: tuple[FunctionWindow, ...]
    stats: ParseStats = field(default_factory=ParseStats, compare=False)

    def function(self, key: str) -> FunctionWindow:
        for fn in self.functions:
            if fn.key == key:
                return fn
        raise KeyError(
            f"function {key!r} not in the loaded window "
            f"({len(self.functions)} functions)"
        )

    @property
    def total(self) -> int:
        return sum(f.total for f in self.functions)


def _parse_count_row(
    row: list[str], lo: int, hi: int
) -> tuple[str, str, str, str, np.ndarray] | None:
    """One invocation row -> (identity, counts over columns [lo, hi)).

    Returns ``None`` for malformed rows: fewer than four identity
    columns, or non-integer count cells inside the requested span.
    Rows *shorter* than the nominal 1440 minutes are not malformed —
    the missing minutes simply read as zero invocations.
    """
    if len(row) < len(INVOCATION_HEADER) + 1:
        return None
    owner, app, function, trigger = (c.strip() for c in row[:4])
    if not (owner and app and function):
        return None
    cells = row[4 + lo : 4 + hi]
    counts = np.zeros(hi - lo, dtype=np.int64)
    try:
        for i, cell in enumerate(cells):
            if cell:
                value = int(float(cell))
                if value < 0:
                    return None
                counts[i] = value
    except (TypeError, ValueError):
        return None
    return owner, app, function, trigger, counts


def _day_span(source: Azure2019Source, day: int) -> tuple[int, int, int]:
    """The window's overlap with day ``day``: (lo_min, hi_min, offset).

    ``lo``/``hi`` are minute columns inside the day-file; ``offset`` is
    where that overlap starts inside the window's count arrays.
    """
    day_start = (day - 1) * MINUTES_PER_DAY
    lo = max(source.start_minute - day_start, 0)
    hi = min(source.end_minute - day_start, MINUTES_PER_DAY)
    return lo, hi, day_start + lo - source.start_minute


def _iter_invocation_rows(path: pathlib.Path):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [
            c.strip() for c in header[:4]
        ] != INVOCATION_HEADER:
            raise ValueError(
                f"{path} is not a 2019 invocation file "
                f"(header starts {header[:4] if header else header!r})"
            )
        yield from reader


def _load_table(
    path: pathlib.Path, key_cols: int, value_col: str
) -> dict[str, float]:
    """Stream one percentile table into ``identity -> value``.

    ``key_cols`` is 3 for the per-function duration table
    (owner/app/function) and 2 for the per-app memory table (owner/app).
    Missing files and malformed rows degrade to an empty/partial map —
    the tables refine the zoo mapping, they never gate ingestion.
    """
    if not path.exists():
        return {}
    out: dict[str, float] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                key = "/".join(
                    row[c].strip()
                    for c in ("HashOwner", "HashApp", "HashFunction")[:key_cols]
                )
                out[key] = float(row[value_col])
            except (KeyError, TypeError, ValueError, AttributeError):
                continue
    return out


def load_window(source: Azure2019Source) -> Azure2019Window:
    """Stream the dataset and return the window's top-K functions.

    Two streaming passes over the overlapping day-files:

    1. **Rank** — accumulate one integer total per function (duplicate
       hashes merge here), then select the ``top_k`` highest-volume
       functions (total desc, identity asc for a stable tie-break).
       Functions with zero invocations inside the window never rank.
    2. **Fill** — re-stream the same files keeping per-minute counts for
       the selected functions only.

    An empty ``dataset_dir`` loads the deterministic synthetic fixture
    through the identical selection path.
    """
    if not source.dataset_dir:
        return _fixture_window(source)
    root = pathlib.Path(source.dataset_dir)
    stats = ParseStats()

    totals: dict[str, int] = {}
    identity: dict[str, tuple[str, str, str, str]] = {}
    day_files = []
    for day in source.days:
        path = root / INVOCATIONS_PATTERN.format(day=day)
        if not path.exists():
            stats.missing_files += 1
            continue
        day_files.append((day, path))

    for day, path in day_files:
        lo, hi, _ = _day_span(source, day)
        seen_in_file: set[str] = set()
        for row in _iter_invocation_rows(path):
            if not row:
                continue
            stats.rows += 1
            parsed = _parse_count_row(row, lo, hi)
            if parsed is None:
                stats.malformed += 1
                continue
            owner, app, function, trigger, counts = parsed
            key = f"{owner}/{app}/{function}"
            if key in seen_in_file:
                # The same hash twice in one day-file: merge, count it.
                # (The same function across *different* day-files is just
                # the trace continuing — not a duplicate.)
                stats.duplicates += 1
            seen_in_file.add(key)
            if key in totals:
                totals[key] += int(counts.sum())
            else:
                totals[key] = int(counts.sum())
                identity[key] = (owner, app, function, trigger)

    selected = sorted(
        (k for k, total in totals.items() if total > 0),
        key=lambda k: (-totals[k], k),
    )[: source.top_k]
    chosen = set(selected)

    window_counts = {
        k: np.zeros(source.window_minutes, dtype=np.int64) for k in chosen
    }
    for day, path in day_files:
        lo, hi, offset = _day_span(source, day)
        for row in _iter_invocation_rows(path):
            if len(row) < 4:
                continue
            key = "/".join(c.strip() for c in row[:3])
            if key not in chosen:
                continue
            parsed = _parse_count_row(row, lo, hi)
            if parsed is None:
                continue
            window_counts[key][offset : offset + (hi - lo)] += parsed[4]

    durations: dict[str, float] = {}
    memory: dict[str, float] = {}
    for day in source.days:
        # First table that knows a function wins: stable under any
        # day-to-day drift in the published statistics.
        for key, value in _load_table(
            root / DURATIONS_PATTERN.format(day=day), 3, "Average"
        ).items():
            durations.setdefault(key, value)
        for key, value in _load_table(
            root / MEMORY_PATTERN.format(day=day), 2, "AverageAllocatedMb"
        ).items():
            memory.setdefault(key, value)

    functions = tuple(
        FunctionWindow(
            key=key,
            owner=identity[key][0],
            app=identity[key][1],
            function=identity[key][2],
            trigger=identity[key][3],
            counts=window_counts[key],
            avg_duration_ms=durations.get(key),
            avg_memory_mb=memory.get(f"{identity[key][0]}/{identity[key][1]}"),
        )
        for key in selected
    )
    return Azure2019Window(source=source, functions=functions, stats=stats)


def dataset_source(directory: str | pathlib.Path) -> Azure2019Source:
    """A source spanning every invocation day-file in ``directory``.

    The window runs from the first to the last day-file present (days in
    between that are missing read as zero) and keeps every function: no
    top-K cut.  Raises ``ValueError`` when there is no day-file.
    """
    days = sorted(
        int(match.group(1))
        for path in pathlib.Path(directory).glob(
            INVOCATIONS_PATTERN.replace("{day:02d}", "*")
        )
        if (match := _DAY_RE.search(path.name))
    )
    if not days:
        raise ValueError(
            f"{directory}: no "
            f"{INVOCATIONS_PATTERN.replace('{day:02d}', 'NN')} day-files"
        )
    return Azure2019Source(
        dataset_dir=str(directory),
        start_minute=(days[0] - 1) * MINUTES_PER_DAY,
        end_minute=days[-1] * MINUTES_PER_DAY,
        top_k=sys.maxsize,
    )


# One small memo per process: scenario drivers compile one segment per
# tenant, and every tenant of a fleet shares the same source block.
_WINDOW_MEMO: dict[Azure2019Source, Azure2019Window] = {}


def load_window_cached(source: Azure2019Source) -> Azure2019Window:
    window = _WINDOW_MEMO.get(source)
    if window is None:
        if len(_WINDOW_MEMO) >= 4:
            _WINDOW_MEMO.clear()
        window = _WINDOW_MEMO[source] = load_window(source)
    return window


def dataset_fingerprint(source: Azure2019Source) -> str:
    """Cheap content identity of the dataset behind a source block.

    The result-cache key must change when the files behind
    ``dataset_dir`` change; hashing (name, size) of the window's
    day-files is enough to catch replaced or truncated downloads without
    reading gigabytes.  The bundled fixture is version-pinned code, so
    it contributes a constant.
    """
    if not source.dataset_dir:
        return f"fixture-v{_FIXTURE_VERSION}"
    root = pathlib.Path(source.dataset_dir)
    digest = hashlib.sha256()
    for pattern in (INVOCATIONS_PATTERN, DURATIONS_PATTERN, MEMORY_PATTERN):
        for day in source.days:
            path = root / pattern.format(day=day)
            size = path.stat().st_size if path.exists() else -1
            digest.update(f"{path.name}:{size};".encode())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Vectorised streaming mint
# ----------------------------------------------------------------------
@dataclass
class MintStats:
    """Streaming witness: how much the mint ever buffered at once.

    ``peak_buffered`` is the largest single vectorised batch (= the
    busiest minute's count) — the property test's bound on resident
    requests; ``total`` counts everything minted.
    """

    total: int = 0
    peak_buffered: int = 0
    minutes: int = 0


def iter_minted_stamps(
    counts: np.ndarray,
    *,
    scale: float = 1.0,
    stats: MintStats | None = None,
):
    """Mint sorted arrival stamps from per-minute counts, lazily.

    Each minute with ``c`` invocations yields ``c`` stamps spread
    uniformly across the minute (``linspace`` with ``endpoint=False`` —
    deterministic, no RNG, so replay is identical under any shard
    decomposition), scaled by ``scale`` for time-compressed playback.
    Only one minute's stamps exist at a time, which is what lets
    :class:`~repro.workloads.arrivals.ReplayArrivals` replay a
    million-request window without materialising it.
    """
    counts = np.asarray(counts)
    for minute, c in enumerate(counts):
        c = int(c)
        if c <= 0:
            continue
        offsets = np.linspace(0.0, BIN_SECONDS, num=c, endpoint=False)
        stamps = (minute * BIN_SECONDS + offsets) * scale
        if stats is not None:
            stats.total += c
            stats.minutes += 1
            stats.peak_buffered = max(stats.peak_buffered, c)
        yield from stamps.tolist()


# ----------------------------------------------------------------------
# Volume-tiered zoo mapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZooAssignment:
    """One function bound to a synthetic fleet model."""

    key: str  # the FunctionWindow key
    model: str  # FLEET-<rank>-<size>g
    rank: int
    total: int
    output_median: int


def map_functions_to_zoo(
    window: Azure2019Window, zoo_seed: int | None = None
) -> tuple[ZooAssignment, ...]:
    """Assign ranked functions onto the ``FLEET-*`` model namespace.

    Volume-tiered: the top quartile (heavy, always-warm traffic) gets
    small 4-5 GB models, the middle half 6-7 GB, the long tail (rare
    invocations, cold by construction) 9-12 GB — the serverless-LLM
    shape where popular endpoints run distilled models and the tail
    carries the big checkpoints.  A generator seeded by ``zoo_seed``
    picks the size within each tier, and the dataset's per-app memory
    average (when present) biases that pick, so the assignment is a
    deterministic function of (window ranking, seed) only.  Duration
    averages set each tenant's decode length: sub-second functions mint
    short completions, minutes-long functions mint long ones.
    """
    seed = window.source.zoo_seed if zoo_seed is None else zoo_seed
    rng = np.random.default_rng(seed)
    n = max(len(window.functions), 1)
    assignments = []
    for rank, fn in enumerate(window.functions):
        tier = rank / n
        if tier < 0.25:
            sizes = (4.0, 5.0)
        elif tier < 0.75:
            sizes = (6.0, 7.0)
        else:
            sizes = (9.0, 12.0)
        pick = int(rng.integers(len(sizes)))
        if fn.avg_memory_mb is not None:
            # Clearly hungry / clearly frugal apps override the seeded
            # pick; the broad middle keeps it, so ``zoo_seed`` matters.
            if fn.avg_memory_mb >= 300.0:
                pick = len(sizes) - 1
            elif 0 < fn.avg_memory_mb < 60.0:
                pick = 0
        size = sizes[pick]
        duration_ms = fn.avg_duration_ms or 0.0
        output_median = 4 if duration_ms < 1000.0 else (16 if duration_ms < 60_000.0 else 32)
        assignments.append(
            ZooAssignment(
                key=fn.key,
                model=f"FLEET-{rank}-{size:g}g",
                rank=rank,
                total=fn.total,
                output_median=output_median,
            )
        )
    return tuple(assignments)


# ----------------------------------------------------------------------
# Deterministic synthetic fixture (real format, no download)
# ----------------------------------------------------------------------
_FIXTURE_VERSION = 1
_FIXTURE_SEED = 2019
_FIXTURE_FUNCTIONS = 260
_FIXTURE_APPS = 64
_FIXTURE_OWNERS = 40
_TRIGGERS = ("http", "queue", "timer", "event", "storage", "orchestration")


@dataclass(frozen=True)
class SynthDataset:
    """An in-memory 2019-format dataset (one or more synthetic days)."""

    owners: tuple[str, ...]
    apps: tuple[str, ...]
    functions: tuple[str, ...]
    triggers: tuple[str, ...]
    counts: np.ndarray  # (n_functions, days * MINUTES_PER_DAY)
    durations_ms: np.ndarray  # (n_functions,)
    memory_mb: np.ndarray  # (n_functions,) per-app average, repeated

    @property
    def days(self) -> int:
        return self.counts.shape[1] // MINUTES_PER_DAY


def synthesize_2019_dataset(
    *,
    seed: int = _FIXTURE_SEED,
    n_functions: int = _FIXTURE_FUNCTIONS,
    days: int = 1,
) -> SynthDataset:
    """Generate a dataset with the published 2019 structure.

    Volume follows a Zipf-like rank law (a few heavy hitters, a long
    tail), minutes follow a diurnal envelope with a mid-day peak, and
    every function keeps enough tail volume that a one-hour-plus window
    anywhere in the day still sees the whole fleet — what the bundled
    ``azure-replay-2019`` scenario needs to field 200+ tenants without a
    download.  Deterministic for a given ``seed``.
    """
    if n_functions < 1 or days < 1:
        raise ValueError("n_functions and days must be >= 1")
    rng = np.random.default_rng(seed)
    minutes = days * MINUTES_PER_DAY
    t = (np.arange(minutes) % MINUTES_PER_DAY) / MINUTES_PER_DAY
    # Diurnal envelope: quiet nights, mid-day peak, never fully silent.
    envelope = 0.35 + 0.65 * np.clip(np.sin(np.pi * t) ** 2, 0.0, None)
    envelope /= envelope.sum()

    ranks = np.arange(1, n_functions + 1, dtype=np.float64)
    day_totals = np.maximum(2350.0 / ranks**0.7, 48.0) * days

    counts = np.zeros((n_functions, minutes), dtype=np.int64)
    for i in range(n_functions):
        counts[i] = rng.multinomial(int(round(day_totals[i])), envelope)

    owners = tuple(
        f"O{hashlib.sha1(f'{seed}-owner-{i}'.encode()).hexdigest()[:16]}"
        for i in range(_FIXTURE_OWNERS)
    )
    apps = tuple(
        f"A{hashlib.sha1(f'{seed}-app-{i}'.encode()).hexdigest()[:16]}"
        for i in range(_FIXTURE_APPS)
    )
    functions = tuple(
        f"F{hashlib.sha1(f'{seed}-fn-{i}'.encode()).hexdigest()[:16]}"
        for i in range(n_functions)
    )
    triggers = tuple(
        _TRIGGERS[int(rng.integers(len(_TRIGGERS)))] for _ in range(n_functions)
    )
    durations = rng.lognormal(mean=6.0, sigma=1.8, size=n_functions)  # ms
    app_memory = rng.lognormal(mean=5.0, sigma=0.7, size=_FIXTURE_APPS)  # MB
    memory = np.array(
        [app_memory[i % _FIXTURE_APPS] for i in range(n_functions)]
    )
    return SynthDataset(
        owners=owners,
        apps=apps,
        functions=functions,
        triggers=triggers,
        counts=counts,
        durations_ms=durations,
        memory_mb=memory,
    )


def _fixture_identity(ds: SynthDataset, i: int) -> tuple[str, str, str, str]:
    app = ds.apps[i % len(ds.apps)]
    owner = ds.owners[i % len(ds.owners)]
    return owner, app, ds.functions[i], ds.triggers[i]


_FIXTURE_MEMO: dict[tuple[int, int, int], SynthDataset] = {}


def _fixture_dataset() -> SynthDataset:
    key = (_FIXTURE_SEED, _FIXTURE_FUNCTIONS, 1)
    ds = _FIXTURE_MEMO.get(key)
    if ds is None:
        ds = _FIXTURE_MEMO[key] = synthesize_2019_dataset()
    return ds


def _fixture_window(source: Azure2019Source) -> Azure2019Window:
    """The bundled fixture through the same selection rules as files."""
    ds = _fixture_dataset()
    minutes = ds.counts.shape[1]
    lo = min(source.start_minute, minutes)
    hi = min(source.end_minute, minutes)
    span = source.window_minutes
    stats = ParseStats(rows=len(ds.functions))
    totals = {}
    for i in range(len(ds.functions)):
        owner, app, function, _ = _fixture_identity(ds, i)
        window = np.zeros(span, dtype=np.int64)
        if hi > lo:
            window[: hi - lo] = ds.counts[i, lo:hi]
        totals[f"{owner}/{app}/{function}"] = (i, window)
    selected = sorted(
        (k for k, (_, w) in totals.items() if w.sum() > 0),
        key=lambda k: (-int(totals[k][1].sum()), k),
    )[: source.top_k]
    functions = []
    for key in selected:
        i, window = totals[key]
        owner, app, function, trigger = _fixture_identity(ds, i)
        functions.append(
            FunctionWindow(
                key=key,
                owner=owner,
                app=app,
                function=function,
                trigger=trigger,
                counts=window,
                avg_duration_ms=float(ds.durations_ms[i]),
                avg_memory_mb=float(ds.memory_mb[i]),
            )
        )
    return Azure2019Window(
        source=source, functions=tuple(functions), stats=stats
    )


def write_2019_dataset(
    directory: str | pathlib.Path,
    dataset: SynthDataset,
) -> list[pathlib.Path]:
    """Write a synthetic dataset as real-format day-files.

    Emits ``invocations_per_function_md.anon.dNN.csv`` plus the duration
    and memory percentile tables for every synthesised day, so the
    file-parsing path (and any external 2019 tooling) reads it
    unchanged.  Returns the written paths.
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for day in range(1, dataset.days + 1):
        lo = (day - 1) * MINUTES_PER_DAY
        hi = day * MINUTES_PER_DAY
        inv = root / INVOCATIONS_PATTERN.format(day=day)
        with inv.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                INVOCATION_HEADER + [str(m + 1) for m in range(MINUTES_PER_DAY)]
            )
            for i in range(len(dataset.functions)):
                owner, app, function, trigger = _fixture_identity(dataset, i)
                writer.writerow(
                    [owner, app, function, trigger]
                    + dataset.counts[i, lo:hi].tolist()
                )
        written.append(inv)

        dur = root / DURATIONS_PATTERN.format(day=day)
        with dur.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "HashOwner", "HashApp", "HashFunction",
                    "Average", "Count", "Minimum", "Maximum",
                    "percentile_Average_0", "percentile_Average_1",
                    "percentile_Average_25", "percentile_Average_50",
                    "percentile_Average_75", "percentile_Average_99",
                    "percentile_Average_100",
                ]
            )
            for i in range(len(dataset.functions)):
                owner, app, function, _ = _fixture_identity(dataset, i)
                avg = float(dataset.durations_ms[i])
                writer.writerow(
                    [owner, app, function]
                    + [
                        f"{avg:.2f}",
                        int(dataset.counts[i, lo:hi].sum()),
                        f"{avg * 0.2:.2f}", f"{avg * 5.0:.2f}",
                        f"{avg * 0.2:.2f}", f"{avg * 0.3:.2f}",
                        f"{avg * 0.7:.2f}", f"{avg:.2f}",
                        f"{avg * 1.4:.2f}", f"{avg * 4.0:.2f}",
                        f"{avg * 5.0:.2f}",
                    ]
                )
        written.append(dur)

        mem = root / MEMORY_PATTERN.format(day=day)
        seen_apps: dict[tuple[str, str], float] = {}
        for i in range(len(dataset.functions)):
            owner, app, _, _ = _fixture_identity(dataset, i)
            seen_apps.setdefault((owner, app), float(dataset.memory_mb[i]))
        with mem.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["HashOwner", "HashApp", "SampleCount", "AverageAllocatedMb"]
                + [
                    f"AverageAllocatedMb_pct{p}"
                    for p in (1, 5, 25, 50, 75, 95, 99, 100)
                ]
            )
            for (owner, app), mb in seen_apps.items():
                writer.writerow(
                    [owner, app, MINUTES_PER_DAY, f"{mb:.2f}"]
                    + [
                        f"{mb * f:.2f}"
                        for f in (0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 1.8, 2.2)
                    ]
                )
        written.append(mem)
    return written

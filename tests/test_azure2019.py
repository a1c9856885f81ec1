"""AzureFunctionsDataset2019 ingestion: parsing, minting, zoo mapping.

The tentpole contract: the real 2019 format streams through
``load_window`` in bounded memory, arrivals mint lazily (the full
request list never materialises), the volume-tiered zoo mapping is a
deterministic function of (window, seed), and the production-scale
``azure-replay-2019`` scenario replays a >= 1-hour window with >= 200
tenants, zero violations, byte-identically at any shard count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.scenarios.driver import (
    ScenarioCase,
    run_scenario_case,
    scenario_cache_key,
)
from repro.scenarios.library import SCENARIOS, _azure2019_fleet
from repro.scenarios.sharding import partition_scenario
from repro.scenarios.spec import ArrivalSegment, ModelScript, ScenarioSpec
from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.azure2019 import (
    INVOCATION_HEADER,
    Azure2019Source,
    MintStats,
    dataset_fingerprint,
    iter_minted_stamps,
    load_window,
    map_functions_to_zoo,
    synthesize_2019_dataset,
    write_2019_dataset,
)

WINDOW = Azure2019Source(start_minute=480, end_minute=570, top_k=220)


def _write_invocations(
    path: pathlib.Path, rows: list[list], n_minutes: int = 60
) -> None:
    header = INVOCATION_HEADER + [str(m) for m in range(1, n_minutes + 1)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _row(owner, app, fn, minute_counts):
    return [owner, app, fn, "http", *[str(c) for c in minute_counts]]


# ----------------------------------------------------------------------
# Parser edge cases (hand-written day files)
# ----------------------------------------------------------------------
def test_malformed_rows_counted_and_skipped(tmp_path):
    good = _row("o1", "a1", "f1", [3] * 60)
    short_identity = ["o2", "a2"]  # fewer than four identity columns
    empty_hash = _row("", "a3", "f3", [1] * 60)
    negative = _row("o4", "a4", "f4", [-1] + [0] * 59)
    non_integer = _row("o5", "a5", "f5", ["x"] + [0] * 59)
    _write_invocations(
        tmp_path / "invocations_per_function_md.anon.d01.csv",
        [good, short_identity, empty_hash, negative, non_integer],
    )
    window = load_window(
        Azure2019Source(dataset_dir=str(tmp_path), start_minute=0, end_minute=60)
    )
    assert [f.key for f in window.functions] == ["o1/a1/f1"]
    assert window.stats.rows == 5
    assert window.stats.malformed == 4


def test_missing_minutes_read_as_zero(tmp_path):
    # A row shorter than the nominal 1440 columns is the trace ending
    # early, not corruption: absent minutes are zero invocations.
    short_row = _row("o1", "a1", "f1", [5] * 10)  # only 10 of 60 minutes
    _write_invocations(
        tmp_path / "invocations_per_function_md.anon.d01.csv", [short_row]
    )
    window = load_window(
        Azure2019Source(dataset_dir=str(tmp_path), start_minute=0, end_minute=60)
    )
    assert window.stats.malformed == 0
    fn = window.functions[0]
    assert fn.total == 50
    assert list(fn.counts[:10]) == [5] * 10
    assert not fn.counts[10:].any()


def test_missing_day_files_are_zero_not_crash(tmp_path):
    # Window spans days 1-2 but only d01 exists on disk.
    _write_invocations(
        tmp_path / "invocations_per_function_md.anon.d01.csv",
        [_row("o1", "a1", "f1", [2] * 1440)],
        n_minutes=1440,
    )
    source = Azure2019Source(
        dataset_dir=str(tmp_path), start_minute=1430, end_minute=1500
    )
    window = load_window(source)
    assert list(source.days) == [1, 2]
    assert window.stats.missing_files == 1
    fn = window.functions[0]
    # Minutes [1430, 1440) come from d01's last 10 columns; the rest of
    # the window belongs to the absent d02 and reads zero.
    assert fn.counts.shape[0] == 70
    assert fn.total == 2 * 10


def test_duplicate_hashes_merge_within_one_file(tmp_path):
    _write_invocations(
        tmp_path / "invocations_per_function_md.anon.d01.csv",
        [
            _row("o1", "a1", "f1", [1] * 60),
            _row("o1", "a1", "f1", [2] * 60),  # same key again: merge
            _row("o2", "a2", "f2", [9] * 60),
        ],
    )
    window = load_window(
        Azure2019Source(dataset_dir=str(tmp_path), start_minute=0, end_minute=60)
    )
    assert window.stats.duplicates == 1
    assert window.function("o1/a1/f1").total == 60 * 3


def test_empty_window_and_zero_volume_functions_never_rank(tmp_path):
    _write_invocations(
        tmp_path / "invocations_per_function_md.anon.d01.csv",
        [
            _row("o1", "a1", "f1", [0] * 60),  # zero volume: never ranks
            _row("o2", "a2", "f2", [1] * 60),
        ],
    )
    window = load_window(
        Azure2019Source(dataset_dir=str(tmp_path), start_minute=0, end_minute=60)
    )
    assert [f.key for f in window.functions] == ["o2/a2/f2"]
    with pytest.raises(ValueError, match="non-empty"):
        Azure2019Source(start_minute=60, end_minute=60)


def test_not_an_invocation_file_is_rejected(tmp_path):
    path = tmp_path / "invocations_per_function_md.anon.d01.csv"
    path.write_text("wrong,header,entirely\n1,2,3\n")
    with pytest.raises(ValueError, match="not a 2019 invocation file"):
        load_window(
            Azure2019Source(
                dataset_dir=str(tmp_path), start_minute=0, end_minute=60
            )
        )


# ----------------------------------------------------------------------
# Fixture <-> real-format file round-trip
# ----------------------------------------------------------------------
def test_written_fixture_reads_back_identically(tmp_path):
    dataset = synthesize_2019_dataset(seed=7, n_functions=40)
    write_2019_dataset(tmp_path, dataset)
    source = Azure2019Source(
        dataset_dir=str(tmp_path), start_minute=400, end_minute=520, top_k=25
    )
    from_files = load_window(source)
    assert len(from_files.functions) == 25
    assert from_files.stats.malformed == 0
    assert from_files.stats.duplicates == 0
    # The file path must agree with the in-memory fixture columns.
    lo, hi = source.start_minute, source.end_minute
    totals = {
        "/".join(
            (dataset.owners[i], dataset.apps[i], dataset.functions[i])
        ): int(dataset.counts[i, lo:hi].sum())
        for i in range(len(dataset.functions))
    }
    for fn in from_files.functions:
        assert fn.total == totals[fn.key]
        assert fn.avg_duration_ms is not None
        assert fn.avg_memory_mb is not None
    ranked = [f.total for f in from_files.functions]
    assert ranked == sorted(ranked, reverse=True)


def test_fingerprint_tracks_dataset_bytes(tmp_path):
    assert dataset_fingerprint(WINDOW).startswith("fixture-v")
    write_2019_dataset(tmp_path, synthesize_2019_dataset(seed=3, n_functions=10))
    source = Azure2019Source(
        dataset_dir=str(tmp_path), start_minute=0, end_minute=60
    )
    before = dataset_fingerprint(source)
    path = tmp_path / "invocations_per_function_md.anon.d01.csv"
    path.write_text(path.read_text() + "o,a,f,http," + "1," * 59 + "1\n")
    assert dataset_fingerprint(source) != before


# ----------------------------------------------------------------------
# Streaming mint: the memory property
# ----------------------------------------------------------------------
def test_mint_is_streaming_peak_bounded_by_one_minute():
    counts = np.array([100, 0, 7, 3000, 12], dtype=np.int64)
    stats = MintStats()
    stream = iter_minted_stamps(counts, stats=stats)
    arrivals = ReplayArrivals(stream)
    drained = []
    while True:
        # The streaming witness: the replay never holds a list or array
        # of stamps, before, during or after the drain.
        assert not any(
            isinstance(value, (list, tuple, np.ndarray))
            for value in vars(arrivals).values()
        )
        gap = arrivals.next_interarrival()
        if gap == float("inf"):
            break
        drained.append(gap)
    assert len(drained) == int(counts.sum())
    # Peak resident stamps == the busiest minute's mint, not the window.
    assert stats.peak_buffered == 3000
    assert stats.total == int(counts.sum())
    assert stats.minutes == int((counts > 0).sum())


def test_mint_stamps_are_deterministic_sorted_and_scaled():
    counts = np.array([3, 0, 2])
    once = list(iter_minted_stamps(counts, scale=0.5))
    again = list(iter_minted_stamps(counts, scale=0.5))
    assert once == again  # no RNG anywhere in the mint
    assert once == sorted(once)
    # 3 minutes of trace at scale 0.5 -> stamps inside [0, 90).
    assert 0.0 <= once[0] and once[-1] < 3 * 60.0 * 0.5
    # Minute 2's stamps land at (120 + linspace(0, 60, 2)) * 0.5.
    assert once[-2:] == [60.0, 75.0]


# ----------------------------------------------------------------------
# Volume-tiered zoo mapping
# ----------------------------------------------------------------------
def test_zoo_mapping_is_deterministic_and_volume_tiered():
    window = load_window(WINDOW)
    assert len(window.functions) == 220
    a = map_functions_to_zoo(window)
    assert a == map_functions_to_zoo(window)
    assert a != map_functions_to_zoo(window, zoo_seed=1)
    n = len(a)
    sizes = [float(x.model.rsplit("-", 1)[1][:-1]) for x in a]
    for rank, size in enumerate(sizes):
        tier = rank / n
        expected = (
            (4.0, 5.0)
            if tier < 0.25
            else (6.0, 7.0) if tier < 0.75 else (9.0, 12.0)
        )
        assert size in expected
    assert all(x.output_median in (4, 16, 32) for x in a)
    # Heavy head on small hot models, long tail on the big checkpoints.
    assert sizes[0] < sizes[-1]


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
def test_azure2019_spec_round_trips_through_json():
    spec = SCENARIOS["azure-replay-2019"]
    assert spec.azure2019 == WINDOW.__class__(**dataclasses.asdict(WINDOW))
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert rebuilt.azure2019 == spec.azure2019


def test_azure2019_segment_validation():
    with pytest.raises(ValueError, match="trace_function"):
        ModelScript(
            "FLEET-0-5g",
            segments=(ArrivalSegment("azure2019", duration=10.0, qps=1.0),),
        )
    with pytest.raises(ValueError, match="trace_function"):
        ModelScript(
            "FLEET-0-5g",
            segments=(
                ArrivalSegment(
                    "steady", duration=10.0, qps=1.0, trace_function="x/y/z"
                ),
            ),
        )
    with pytest.raises(ValueError, match="azure2019"):
        ScenarioSpec(
            name="no-source",
            models=(
                ModelScript(
                    "FLEET-0-5g",
                    segments=(
                        ArrivalSegment(
                            "azure2019",
                            duration=10.0,
                            qps=1.0,
                            trace_function="x/y/z",
                        ),
                    ),
                ),
            ),
        )


def test_cache_key_carries_the_dataset_fingerprint(tmp_path):
    spec = SCENARIOS["azure-replay-2019"]
    case = ScenarioCase(spec, "FlexPipe", 0)
    base = scenario_cache_key(case, "codeprint")
    assert base == scenario_cache_key(case, "codeprint")
    # Same spec shape, different trace window -> different cell.
    other = dataclasses.replace(
        spec,
        azure2019=dataclasses.replace(spec.azure2019, end_minute=571),
    )
    assert scenario_cache_key(
        ScenarioCase(other, "FlexPipe", 0), "codeprint"
    ) != base


# ----------------------------------------------------------------------
# The production-scale scenario
# ----------------------------------------------------------------------
def test_azure_replay_2019_partition_is_pure_and_covers_the_fleet():
    spec = SCENARIOS["azure-replay-2019"]
    assert len(spec.models) >= 200
    plan = partition_scenario(spec, seed=0)
    again = partition_scenario(spec, seed=0)
    assert not plan.fallback
    assert [
        (g.models, g.server_indices, g.seed) for g in plan.groups
    ] == [(g.models, g.server_indices, g.seed) for g in again.groups]
    # Hundreds of tenants on tens of servers: packed multi-tenant groups.
    assert 2 <= len(plan.groups) < len(spec.models)
    covered = [m for g in plan.groups for m in g.models]
    assert sorted(covered) == sorted(spec.model_names)
    servers = [i for g in plan.groups for i in g.server_indices]
    assert len(servers) == len(set(servers))


def test_azure_replay_2019_quick_replays_the_window():
    """The acceptance gate: >= 1 h window, >= 200 tenants, no violations."""
    spec = SCENARIOS["azure-replay-2019"]
    assert spec.azure2019.window_seconds >= 3600.0
    window = load_window(spec.azure2019)
    report = run_scenario_case(ScenarioCase(spec.quick(), "FlexPipe", 0))
    assert report.ok, [v.detail for v in report.violations]
    assert len(report.tenants) >= 200
    assert report.offered == window.total  # every trace invocation minted
    assert report.completed > 0
    assert report.offered == report.completed + report.shed + sum(
        t.admitted - t.completed for t in report.tenants.values()
    )


def test_azure2019_sharded_replay_is_shard_count_invariant():
    """Byte-identical reports at 1/2 workers through packed groups."""
    source = Azure2019Source(
        start_minute=480, end_minute=570, top_k=8, zoo_seed=0
    )
    spec = dataclasses.replace(
        SCENARIOS["azure-replay-2019"],
        name="azure-replay-2019-mini",
        models=_azure2019_fleet(source, duration=60.0),
        azure2019=source,
        cluster="small",
        admission_cap=128,
        events=(),
    ).quick()
    plan = partition_scenario(spec, seed=0)
    assert len(plan.groups) == 2  # 8 tenants packed onto 8 servers
    assert all(len(g.models) > 1 for g in plan.groups)
    blobs = {}
    for workers in (1, 2):
        report = run_scenario_case(ScenarioCase(spec, "FlexPipe", 0, workers))
        blobs[workers] = json.dumps(
            dataclasses.asdict(report), sort_keys=True, default=repr
        )
        assert report.ok, [v.detail for v in report.violations]
        assert report.shards == 2
    assert blobs[1] == blobs[2]

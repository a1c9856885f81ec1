"""Tests for the Fig. 1 measurement over 2019-layout Azure Functions traces,
and for replaying a function's counts through the lazy mint."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.azure import (
    FIG1_WINDOWS,
    app_counts,
    binned_count_cv,
    fig1_report,
    multi_window_cv,
)
from repro.workloads.azure2019 import (
    Azure2019Source,
    Azure2019Window,
    FunctionWindow,
    dataset_source,
    iter_minted_stamps,
    load_window,
    load_window_cached,
    synthesize_2019_dataset,
    write_2019_dataset,
)

#: The whole bundled fixture day, every function.
FULL_DAY = Azure2019Source(start_minute=0, end_minute=1440, top_k=260)


def make_window(rows) -> Azure2019Window:
    """A window from ``(owner, app, function, counts)`` rows."""
    functions = tuple(
        FunctionWindow(
            key=f"{owner}/{app}/{function}",
            owner=owner,
            app=app,
            function=function,
            trigger="http",
            counts=np.array(counts, dtype=np.int64),
        )
        for owner, app, function, counts in rows
    )
    minutes = len(rows[0][3])
    return Azure2019Window(
        Azure2019Source(end_minute=minutes, top_k=len(rows)), functions
    )


def drain(process) -> list[float]:
    """Every arrival stamp a replay emits, rebuilt from its gaps."""
    stamps, now = [], 0.0
    while (gap := process.next_interarrival()) != math.inf:
        now += gap
        stamps.append(now)
    return stamps


class TestFunctionWindow:
    def test_basic_stats(self):
        fn = make_window([("o", "a", "f", [10, 20, 30])]).functions[0]
        assert fn.total == 60
        assert fn.mean_rate == pytest.approx(60 / 180.0)
        assert fn.peak_minute == 30


class TestBinnedCountCV:
    def test_constant_counts_have_zero_cv(self):
        assert binned_count_cv(np.full(100, 7), 60.0, 120.0) == 0.0

    def test_bursty_counts_have_high_cv(self):
        counts = np.zeros(100)
        counts[::10] = 100
        cv = binned_count_cv(counts, 60.0, 60.0)
        assert cv > 2.0

    def test_aggregation_smooths_alternation(self):
        # Alternating 0/20 is maximally bursty at 1-bin windows but exactly
        # flat at 2-bin windows.
        counts = np.tile([0, 20], 50)
        assert binned_count_cv(counts, 60.0, 60.0) == pytest.approx(1.0)
        assert binned_count_cv(counts, 60.0, 120.0) == pytest.approx(0.0)

    def test_window_below_bin_rejected(self):
        with pytest.raises(ValueError, match="bin width"):
            binned_count_cv(np.ones(10), 60.0, 30.0)

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            binned_count_cv(np.ones(3), 60.0, 180.0)

    def test_all_zero_counts(self):
        assert binned_count_cv(np.zeros(10), 60.0, 60.0) == 0.0

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=50), min_size=8, max_size=64),
        group=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_cv_is_scale_invariant(self, counts, group):
        """Multiplying every count by a constant leaves the CV unchanged."""
        counts = np.array(counts, dtype=np.int64)
        if counts.shape[0] // group < 2 or counts.sum() == 0:
            return
        base = binned_count_cv(counts, 60.0, 60.0 * group)
        scaled = binned_count_cv(counts * 7, 60.0, 60.0 * group)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestAppGrouping:
    def make_window(self):
        return make_window(
            [
                ("o1", "appA", "f1", [1, 2, 3, 4]),
                ("o1", "appA", "f2", [4, 3, 2, 1]),
                ("o1", "appB", "f1", [10, 2, 10, 2]),
            ]
        )

    def test_app_counts_sum_functions(self):
        apps = dict(app_counts(self.make_window()))
        assert apps["o1/appA"].tolist() == [5, 5, 5, 5]
        assert apps["o1/appB"].tolist() == [10, 2, 10, 2]

    def test_apps_ranked_by_volume(self):
        assert [app for app, _ in app_counts(self.make_window())] == [
            "o1/appB",
            "o1/appA",
        ]

    def test_same_app_hash_under_two_owners_stays_apart(self):
        window = make_window(
            [("o1", "app", "f", [1, 1]), ("o2", "app", "f", [2, 2])]
        )
        assert [app for app, _ in app_counts(window)] == ["o2/app", "o1/app"]

    def test_total_sums_everything(self):
        windows = (60.0, 120.0)
        report = fig1_report(self.make_window(), windows)
        assert report["total"] == multi_window_cv(
            np.array([15, 7, 15, 7]), windows
        )
        assert report["top1"] == multi_window_cv(np.array([10, 2, 10, 2]), windows)
        assert report["top2"] == multi_window_cv(np.array([5, 5, 5, 5]), windows)

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            self.make_window().function("o1/appC/f1")


class TestDatasetSource:
    def test_dataset_roundtrip(self, tmp_path):
        ds = synthesize_2019_dataset(seed=3, n_functions=10, days=2)
        write_2019_dataset(tmp_path, ds)
        source = dataset_source(tmp_path)
        assert (source.start_minute, source.end_minute) == (0, 2880)
        window = load_window(source)
        assert len(window.functions) == 10  # no top-K cut
        assert window.total == int(ds.counts.sum())
        by_function = {fn.function: fn.counts for fn in window.functions}
        for i, name in enumerate(ds.functions):
            assert by_function[name].tolist() == ds.counts[i].tolist()

    def test_span_runs_from_first_to_last_day_file(self, tmp_path):
        write_2019_dataset(tmp_path, synthesize_2019_dataset(n_functions=4, days=3))
        (tmp_path / "invocations_per_function_md.anon.d01.csv").unlink()
        source = dataset_source(tmp_path)
        assert (source.start_minute, source.end_minute) == (1440, 4320)

    def test_no_day_files_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="day-files"):
            dataset_source(tmp_path)

    def test_read_rejects_foreign_csv(self, tmp_path):
        (tmp_path / "invocations_per_function_md.anon.d01.csv").write_text(
            "a,b,c\n1,2,3\n"
        )
        with pytest.raises(ValueError, match="2019 invocation file"):
            load_window(dataset_source(tmp_path))


class TestSynthesis:
    def test_deterministic_given_seed(self):
        a = synthesize_2019_dataset(seed=7, n_functions=5)
        b = synthesize_2019_dataset(seed=7, n_functions=5)
        assert a.counts.tolist() == b.counts.tolist()
        assert a.functions == b.functions

    def test_popularity_is_skewed(self):
        apps = app_counts(load_window_cached(FULL_DAY))
        median_volume = np.median([int(c.sum()) for _, c in apps])
        assert int(apps[0][1].sum()) > 3 * median_volume

    def test_fig1_multi_window_cv_mismatch(self):
        """The headline Fig. 1 claim: short-window CV >> long-window CV."""
        cvs = fig1_report(load_window_cached(FULL_DAY))["total"]
        short, mid, long_ = cvs[180.0], cvs[3 * 3600.0], cvs[12 * 3600.0]
        assert short > 2 * long_
        assert short > mid

    def test_fig1_report_covers_total_and_top_apps(self):
        report = fig1_report(load_window_cached(FULL_DAY))
        assert set(report) == {"total", "top1", "top2"}
        for cvs in report.values():
            assert set(cvs) == set(FIG1_WINDOWS)


class TestReplay:
    def test_minted_counts_match_per_minute(self):
        stamps = list(iter_minted_stamps(np.array([3, 0, 5])))
        assert len(stamps) == 8
        assert all(t < 60.0 for t in stamps[:3])
        assert all(t >= 120.0 for t in stamps[3:])

    def test_timestamps_sorted(self):
        stamps = list(iter_minted_stamps(np.array([10, 10, 10])))
        assert stamps == sorted(stamps)

    def test_empty_trace_yields_no_stamps(self):
        assert list(iter_minted_stamps(np.array([0, 0]))) == []

    def test_replay_arrivals_reproduce_timestamps(self):
        counts = np.array([2, 2])
        process = ReplayArrivals(iter_minted_stamps(counts))
        assert drain(process) == pytest.approx(list(iter_minted_stamps(counts)))
        assert process.next_interarrival() == math.inf

    def test_replay_rescales_on_request(self):
        counts = np.array([10, 10, 10, 10])
        full = drain(ReplayArrivals(iter_minted_stamps(counts)))
        half = drain(ReplayArrivals(iter_minted_stamps(counts, scale=0.5)))
        assert half == pytest.approx([t * 0.5 for t in full])

    def test_replay_cv_positive_for_bursty_trace(self):
        counts = np.zeros(30, dtype=np.int64)
        counts[::10] = 50
        process = ReplayArrivals(iter_minted_stamps(counts))
        drain(process)
        assert process.cv > 1.0

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_replay_emits_exactly_total_invocations(self, counts):
        process = ReplayArrivals(iter_minted_stamps(np.array(counts)))
        assert len(drain(process)) == sum(counts)

"""Plan-quality accounting: q-error math, histograms, drift flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.engine import EngineSession
from repro.generators import skewed_chain_database, skewed_chain_endpoints
from repro.telemetry import PlanQualityTracker, QualityObservation, q_error
from repro.telemetry.qualitylog import Q_ERROR_BUCKETS


@dataclass(frozen=True)
class FakeStatistics:
    """The duck-typed slice of EngineStatistics the tracker reads."""

    adaptive: bool = True
    estimated_intermediate_sizes: Tuple[int, ...] = ()
    intermediate_sizes: Tuple[int, ...] = ()
    estimated_output_size: Optional[int] = None
    output_size: int = 0


class TestQError:
    def test_perfect_estimates_score_one(self):
        assert q_error(10, 10) == 1.0
        assert q_error(0, 0) == 1.0  # perfect prediction of emptiness

    def test_symmetric_in_over_and_under_estimation(self):
        assert q_error(100, 10) == q_error(10, 100)
        assert q_error(100, 10) == pytest.approx(101 / 11)

    def test_smoothing_keeps_zero_rows_finite(self):
        assert q_error(0, 99) == 100.0
        assert q_error(99, 0) == 100.0

    def test_negative_inputs_are_clamped(self):
        assert q_error(-5, 0) == 1.0
        assert q_error(-5, 9) == 10.0

    def test_always_at_least_one(self):
        for est, act in ((0, 0), (1, 2), (7, 3), (1000, 1)):
            assert q_error(est, act) >= 1.0


class TestObservationExtraction:
    def test_static_runs_are_ignored(self):
        tracker = PlanQualityTracker()
        statistics = FakeStatistics(adaptive=False,
                                    estimated_intermediate_sizes=(5,),
                                    intermediate_sizes=(50,))
        assert tracker.observe(fingerprint="f", query="q",
                               statistics=statistics) is None
        assert tracker.records() == ()

    def test_runs_without_estimates_are_ignored(self):
        tracker = PlanQualityTracker()
        assert tracker.observe(fingerprint="f", query="q",
                               statistics=FakeStatistics()) is None

    def test_pairs_and_output_estimate_all_contribute(self):
        statistics = FakeStatistics(
            estimated_intermediate_sizes=(10, 20),
            intermediate_sizes=(10, 80),
            estimated_output_size=5, output_size=5)
        observation = PlanQualityTracker.observation_from("f", "q", statistics)
        assert isinstance(observation, QualityObservation)
        assert observation.q_errors == pytest.approx(
            (1.0, 81 / 21, 1.0))
        assert observation.worst == pytest.approx(81 / 21)


class TestRecordAccumulation:
    def test_histogram_buckets_are_cumulative_free_and_labelled(self):
        tracker = PlanQualityTracker()
        # q-errors 1.0 (<=1.5) and 81/21 ~ 3.86 (<=4).
        tracker.observe(fingerprint="f", query="q", statistics=FakeStatistics(
            estimated_intermediate_sizes=(10, 20),
            intermediate_sizes=(10, 80)))
        (record,) = tracker.records()
        histogram = dict(record.histogram())
        assert set(histogram) == {f"{b:g}" for b in Q_ERROR_BUCKETS} | {"+Inf"}
        assert histogram["1.5"] == 1
        assert histogram["4"] == 1
        assert histogram["+Inf"] == 0

    def test_q_errors_past_the_last_bound_land_in_inf(self):
        tracker = PlanQualityTracker()
        tracker.observe(fingerprint="f", query="q", statistics=FakeStatistics(
            estimated_intermediate_sizes=(0,),
            intermediate_sizes=(10_000,)))
        (record,) = tracker.records()
        assert dict(record.histogram())["+Inf"] == 1

    def test_boundary_value_lands_in_its_le_bucket(self):
        tracker = PlanQualityTracker()
        # est 0, act 1 -> (1+0+... ) q = 2.0 exactly: the <=2 bucket.
        tracker.observe(fingerprint="f", query="q", statistics=FakeStatistics(
            estimated_intermediate_sizes=(0,), intermediate_sizes=(1,)))
        (record,) = tracker.records()
        assert dict(record.histogram())["2"] == 1

    def test_mean_max_and_run_counters(self):
        tracker = PlanQualityTracker()
        for actual in (10, 40):
            tracker.observe(fingerprint="f", query="q",
                            statistics=FakeStatistics(
                                estimated_intermediate_sizes=(10,),
                                intermediate_sizes=(actual,)))
        (record,) = tracker.records()
        assert record.runs == 2
        assert record.observations == 2
        assert record.max_q == pytest.approx(41 / 11)
        assert record.mean_q == pytest.approx((1.0 + 41 / 11) / 2)
        assert record.last_q == pytest.approx(41 / 11)

    def test_fold_and_fold_values_agree(self):
        via_observe = PlanQualityTracker()
        via_fold_run = PlanQualityTracker()
        statistics = FakeStatistics(estimated_intermediate_sizes=(3, 9),
                                    intermediate_sizes=(30, 9),
                                    estimated_output_size=2, output_size=0)
        via_observe.observe(fingerprint="f", query="q", statistics=statistics)
        via_fold_run.fold_run(fingerprint="f", query="q",
                              statistics=statistics)
        (a,), (b,) = via_observe.records(), via_fold_run.records()
        assert a.to_dict() == b.to_dict()

    def test_records_are_fingerprint_sorted_and_queries_deduplicated(self):
        tracker = PlanQualityTracker()
        statistics = FakeStatistics(estimated_intermediate_sizes=(1,),
                                    intermediate_sizes=(1,))
        for fingerprint in ("bbb", "aaa", "bbb"):
            tracker.observe(fingerprint=fingerprint, query="q",
                            statistics=statistics)
        assert [r.fingerprint for r in tracker.records()] == ["aaa", "bbb"]
        assert tracker.record("bbb").queries == ["q"]


class TestDrift:
    def test_drift_needs_min_runs(self):
        tracker = PlanQualityTracker(drift_threshold=2.0, drift_min_runs=3)
        bad = FakeStatistics(estimated_intermediate_sizes=(1,),
                             intermediate_sizes=(100,))
        tracker.observe(fingerprint="f", query="q", statistics=bad)
        tracker.observe(fingerprint="f", query="q", statistics=bad)
        assert tracker.drifted_fingerprints() == ()
        tracker.observe(fingerprint="f", query="q", statistics=bad)
        assert tracker.drifted_fingerprints() == ("f",)

    def test_drift_is_recency_windowed(self):
        tracker = PlanQualityTracker(drift_threshold=2.0, drift_min_runs=2,
                                     window=3)
        bad = FakeStatistics(estimated_intermediate_sizes=(1,),
                             intermediate_sizes=(100,))
        good = FakeStatistics(estimated_intermediate_sizes=(10,),
                              intermediate_sizes=(10,))
        for _ in range(3):
            tracker.observe(fingerprint="f", query="q", statistics=bad)
        assert tracker.drifted_fingerprints() == ("f",)
        # Three accurate runs push the bad ones out of the window: recovery.
        for _ in range(3):
            tracker.observe(fingerprint="f", query="q", statistics=good)
        assert tracker.drifted_fingerprints() == ()
        # ... while the lifetime histogram still remembers the bad runs
        # (q-error (100+1)/(1+1) = 50.5 lands in the <=64 bucket).
        assert dict(tracker.record("f").histogram())["64"] == 3

    def test_threshold_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            PlanQualityTracker(drift_threshold=0.5)

    def test_to_dict_is_the_quality_endpoint_document(self):
        tracker = PlanQualityTracker(drift_min_runs=1)
        tracker.observe(fingerprint="f", query="q", statistics=FakeStatistics(
            estimated_intermediate_sizes=(1,), intermediate_sizes=(100,)))
        document = tracker.to_dict()
        assert document["drifted"] == ["f"]
        (record,) = document["fingerprints"]
        assert record["fingerprint"] == "f"
        assert record["drifted"] is True
        assert record["runs"] == 1


class TestAgainstTheLiveEngine:
    def test_adaptive_runs_feed_the_tracker(self):
        database = skewed_chain_database(4, heads=6, fanout=3,
                                         junction_values=2, seed=3)
        session = EngineSession(monitor=True)
        prepared = session.prepare(database, skewed_chain_endpoints(4))
        result = prepared.execute(database)
        assert result.statistics.adaptive
        (record,) = session.monitor.quality.records()
        assert record.runs == 1
        assert record.observations >= 1
        assert record.mean_q >= 1.0

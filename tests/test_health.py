"""Tests for the fleet health engine (``repro.obs.health``, DESIGN.md §16).

Covers the declarative SLO spec (parsing, validation, versioning,
fingerprints), sliding-window aggregation with injected clocks,
multi-window burn-rate alerting (fire → resolve → re-fire, window
edges), backpressure hysteresis against both a fake and the real commit
queue, the engine's disabled gate, static/replay evaluation, the
Prometheus exporter, and the ``repro health`` / ``repro top`` CLI
surfaces. The alert lifecycle is pinned byte-for-byte by
``tests/golden/health_alerts.jsonl``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs import EventType, LATENCY_BUCKETS, MetricsRegistry, Observer
from repro.obs.health import (
    SLO,
    SLO_FORMAT_VERSION,
    BackpressureController,
    FleetAggregator,
    HealthEngine,
    SLOError,
    SLOEvaluator,
    SLOSpec,
    default_spec,
    evaluate_static,
    replay_events,
)
from repro.obs.promexport import render_prometheus

GOLDEN_ALERTS = pathlib.Path(__file__).parent / "golden" / "health_alerts.jsonl"

#: A deliberately tiny spec with short windows: one backpressure-flagged
#: gauge objective and one zero-tolerance rate objective.
SMALL_SPEC = {
    "slo_format": 1,
    "name": "test-spec",
    "slos": [
        {
            "name": "depth",
            "indicator": "service.queue_depth",
            "kind": "gauge",
            "threshold": 8,
            "objective": 0.5,
            "short_window": 10,
            "long_window": 50,
            "min_samples": 3,
            "backpressure": True,
        },
        {
            "name": "failures",
            "indicator": "events.queue_write_failed",
            "kind": "rate",
            "max_per_window": 0,
            "short_window": 10,
            "long_window": 50,
        },
    ],
}


def small_spec() -> SLOSpec:
    return SLOSpec.from_mapping(SMALL_SPEC)


# ---------------------------------------------------------------------------
# Declarative spec: parsing, validation, versioning, fingerprint
# ---------------------------------------------------------------------------


class TestSLOSpec:
    def test_parses_with_defaults(self):
        spec = small_spec()
        assert spec.name == "test-spec"
        assert spec.slo_format == SLO_FORMAT_VERSION
        depth = spec.slos[0]
        assert depth.budget == pytest.approx(0.5)
        assert depth.backpressure is True
        failures = spec.slos[1]
        assert failures.severity == "page"  # default
        assert failures.burn_threshold == 1.0

    def test_round_trips_through_as_dict(self):
        spec = small_spec()
        again = SLOSpec.from_mapping(spec.as_dict())
        assert again.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"kind": "nope"}, "kind"),
            ({"severity": "urgent"}, "severity"),
            ({"threshold": None}, "threshold"),
            ({"objective": 1.5}, "objective"),
            ({"short_window": 60, "long_window": 60}, "short_window"),
            ({"burn_threshold": 0}, "burn_threshold"),
            ({"mystery_field": 1}, "unknown fields"),
        ],
    )
    def test_bad_slo_entries_raise(self, patch, match):
        entry = dict(SMALL_SPEC["slos"][0])
        entry.update(patch)
        data = {"slo_format": 1, "name": "x", "slos": [entry]}
        with pytest.raises(SLOError, match=match):
            SLOSpec.from_mapping(data)

    def test_rate_without_allowance_raises(self):
        with pytest.raises(SLOError, match="max_per_window"):
            SLO(name="r", indicator="events.x", kind="rate")

    def test_duplicate_names_raise(self):
        entry = dict(SMALL_SPEC["slos"][0])
        data = {"slo_format": 1, "name": "x", "slos": [entry, dict(entry)]}
        with pytest.raises(SLOError, match="duplicate"):
            SLOSpec.from_mapping(data)

    def test_newer_format_refused(self):
        data = dict(SMALL_SPEC, slo_format=SLO_FORMAT_VERSION + 1)
        with pytest.raises(SLOError, match="newer"):
            SLOSpec.from_mapping(data)

    def test_empty_slos_refused(self):
        with pytest.raises(SLOError, match="non-empty"):
            SLOSpec.from_mapping({"slo_format": 1, "name": "x", "slos": []})

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL_SPEC))
        spec = SLOSpec.from_file(path)
        assert spec.source == str(path)
        assert spec.fingerprint() == small_spec().fingerprint()

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(SLOError, match="invalid JSON"):
            SLOSpec.from_file(path)

    def test_from_file_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'slo_format = 1\nname = "toml-spec"\n'
            "[[slos]]\n"
            'name = "depth"\nindicator = "service.queue_depth"\n'
            'kind = "gauge"\nthreshold = 8\nobjective = 0.5\n'
            "short_window = 10\nlong_window = 50\n"
        )
        spec = SLOSpec.from_file(path)
        assert spec.name == "toml-spec"
        assert spec.slos[0].threshold == 8

    def test_fingerprint_tracks_content(self):
        base = small_spec().fingerprint()
        bumped = dict(SMALL_SPEC)
        bumped_slos = [dict(s) for s in SMALL_SPEC["slos"]]
        bumped_slos[0]["threshold"] = 9
        bumped["slos"] = bumped_slos
        assert SLOSpec.from_mapping(bumped).fingerprint() != base

    def test_shipped_default_spec(self):
        spec = default_spec()
        assert spec.name == "fleet-default"
        assert len(spec.slos) == 9
        # Pinned: the CI gate and docs reference this fingerprint. Bump
        # it only with an intentional change to slodata/fleet.json.
        assert spec.fingerprint() == "61a6d390b3e40e2f"
        assert any(slo.backpressure for slo in spec.slos)


# ---------------------------------------------------------------------------
# Sliding-window aggregation
# ---------------------------------------------------------------------------


class TestFleetAggregator:
    def test_window_excludes_samples_at_horizon(self):
        agg = FleetAggregator(clock=lambda: 100.0)
        agg.observe("m", 1.0, now=90.0)  # exactly at the horizon: out
        agg.observe("m", 2.0, now=90.5)
        assert agg.window_values("m", 10.0, now=100.0) == [2.0]

    def test_session_filter(self):
        agg = FleetAggregator(clock=lambda: 10.0)
        agg.observe("m", 1.0, session="a", now=1.0)
        agg.observe("m", 2.0, session="b", now=2.0)
        assert agg.window_values("m", 60.0, now=10.0) == [1.0, 2.0]
        assert agg.window_values("m", 60.0, now=10.0, session="b") == [2.0]
        assert agg.sessions() == ["a", "b"]

    def test_retention_prunes_old_samples(self):
        agg = FleetAggregator(clock=lambda: 0.0, retention=100.0)
        agg.observe("m", 1.0, now=0.0)
        for at in (50.0, 101.0):
            agg.observe("m", 2.0, now=at)
        # The t=0 sample fell off at the t=101 insert (0 <= 101 - 100).
        assert agg.window_values("m", 1000.0, now=101.0) == [2.0, 2.0]

    def test_snapshot_percentiles_are_nearest_rank(self):
        agg = FleetAggregator(clock=lambda: 10.0)
        for i, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            agg.observe("m", value, now=float(i))
        snap = agg.snapshot(window=60.0, now=10.0)
        stats = snap["fleet"]["m"]
        assert stats["count"] == 4
        assert stats["p50"] == 2.0
        assert stats["p99"] == 4.0
        assert stats["max"] == 4.0

    def test_ingest_event_feeds_rate_and_gauge_series(self):
        agg = FleetAggregator(clock=lambda: 5.0)
        agg.ingest_event(
            EventType.COMMIT_ENQUEUED, {"depth": 3, "session": "s1"}, now=1.0
        )
        agg.ingest_event(EventType.COMMIT, {"bytes": 128, "session": "s1"}, now=2.0)
        assert agg.window_values("events.commit_enqueued", 60.0, now=5.0) == [1.0]
        assert agg.window_values("service.queue_depth", 60.0, now=5.0) == [3.0]
        assert agg.window_values("store.bytes_written", 60.0, now=5.0) == [128.0]


# ---------------------------------------------------------------------------
# Multi-window burn-rate evaluation
# ---------------------------------------------------------------------------


def evaluator_with_clock():
    clock_now = [0.0]
    agg = FleetAggregator(clock=lambda: clock_now[0], retention=200.0)
    return SLOEvaluator(small_spec(), agg), agg, clock_now


class TestSLOEvaluator:
    def test_fire_requires_both_windows(self):
        evaluator, agg, _ = evaluator_with_clock()
        # Three bad samples inside the short window but the long window
        # is the same set — both burn, so it fires.
        for at in (1.0, 2.0, 3.0):
            agg.gauge("service.queue_depth", 40.0, now=at)
        transitions = evaluator.evaluate(now=3.0)
        assert [t["type"] for t in transitions] == [EventType.SLO_ALERT_FIRED]
        assert transitions[0]["slo"] == "depth"
        assert "service.queue_depth" in transitions[0]["reason"]
        assert evaluator.firing() == ["depth"]
        assert evaluator.firing_backpressure() is True

    def test_min_samples_gates_firing(self):
        evaluator, agg, _ = evaluator_with_clock()
        agg.gauge("service.queue_depth", 40.0, now=1.0)
        agg.gauge("service.queue_depth", 40.0, now=2.0)
        assert evaluator.evaluate(now=2.0) == []  # 2 < min_samples=3

    def test_resolve_on_short_window_recovery_and_refire(self):
        evaluator, agg, _ = evaluator_with_clock()
        for at in (1.0, 2.0, 3.0):
            agg.gauge("service.queue_depth", 40.0, now=at)
        evaluator.evaluate(now=3.0)
        # Healthy samples push the bad ones out of the short window
        # (but they still sit in the long window: resolve is short-only).
        for at in (14.0, 15.0, 16.0):
            agg.gauge("service.queue_depth", 1.0, now=at)
        transitions = evaluator.evaluate(now=16.0)
        assert [t["type"] for t in transitions] == [EventType.SLO_ALERT_RESOLVED]
        assert evaluator.firing() == []
        # Sustained badness again → a second, distinct fire.
        for at in (20.0, 21.0, 22.0):
            agg.gauge("service.queue_depth", 40.0, now=at)
        transitions = evaluator.evaluate(now=22.0)
        assert [t["type"] for t in transitions] == [EventType.SLO_ALERT_FIRED]
        assert evaluator.state("depth").fired == 2
        assert evaluator.state("depth").resolved == 1

    def test_zero_tolerance_rate_fires_on_single_event(self):
        evaluator, agg, _ = evaluator_with_clock()
        agg.count("events.queue_write_failed", 1, now=5.0)
        transitions = evaluator.evaluate(now=5.0)
        fired = [t for t in transitions if t["slo"] == "failures"]
        assert fired and fired[0]["type"] == EventType.SLO_ALERT_FIRED
        assert fired[0]["burn_short"] == 1.0

    def test_transitions_emit_observer_events(self):
        observer = Observer()
        clock_now = [0.0]
        agg = FleetAggregator(clock=lambda: clock_now[0], retention=200.0)
        evaluator = SLOEvaluator(small_spec(), agg, observer=observer)
        agg.count("events.queue_write_failed", 1, now=1.0)
        evaluator.evaluate(now=1.0)
        fired = observer.events.of_type(EventType.SLO_ALERT_FIRED)
        assert len(fired) == 1
        assert fired[0].fields["slo"] == "failures"
        assert fired[0].fields["severity"] == "page"


# ---------------------------------------------------------------------------
# Backpressure: hysteresis ladder, real queue integration
# ---------------------------------------------------------------------------


class FakeQueue:
    PRESSURE_LEVELS = ("accept", "degrade_fsync", "block")

    def __init__(self, depth: int = 0) -> None:
        self.calls = []
        self._depth = depth

    def set_pressure(self, level, *, ceiling=None, reason=""):
        self.calls.append((level, ceiling, reason))

    def depth(self) -> int:
        return self._depth


class TestBackpressureController:
    def test_escalates_after_sustained_firing_with_hysteresis(self):
        queue = FakeQueue()
        ctl = BackpressureController(
            queue, escalate_after=2, relax_after=3, ceiling=16
        )
        assert ctl.update(True) is None  # 1 hot tick: not yet
        assert ctl.update(True) == "degrade_fsync"
        assert ctl.update(True) is None  # counter reset on transition
        assert ctl.update(True) == "block"
        # Ladder top: further firing ticks change nothing.
        assert ctl.update(True) is None
        assert queue.calls == [
            ("degrade_fsync", 16, "slo_firing"),
            ("block", 16, "slo_firing"),
        ]

    def test_relaxes_after_sustained_recovery(self):
        queue = FakeQueue()
        ctl = BackpressureController(
            queue, escalate_after=3, relax_after=2, ceiling=None
        )
        for _ in range(3):
            ctl.update(True, reason="depth")
        assert ctl.level == "degrade_fsync"
        assert ctl.update(False) is None
        assert ctl.update(False) == "accept"
        assert ctl.level == "accept"
        # A firing tick mid-recovery resets the cool-down counter
        # (without escalating: one hot tick < escalate_after).
        for _ in range(3):
            ctl.update(True)
        assert ctl.level == "degrade_fsync"
        assert ctl.update(False) is None
        assert ctl.update(True) is None
        assert ctl.update(False) is None  # cool restarted at 1
        assert ctl.update(False) == "accept"

    def test_real_queue_pressure_surface(self):
        from repro.core.storage import InMemoryCheckpointStore
        from repro.service.queue import PRESSURE_LEVELS, CommitQueue

        observer = Observer()
        queue = CommitQueue(InMemoryCheckpointStore(), observer=observer)
        try:
            assert queue.pressure == "accept"
            assert queue.stats()["pressure"] == "accept"
            queue.set_pressure("degrade_fsync", reason="test")
            assert queue.pressure == "degrade_fsync"
            # Idempotent: re-setting the same level emits nothing new.
            queue.set_pressure("degrade_fsync")
            changes = observer.events.of_type(EventType.BACKPRESSURE_CHANGED)
            assert len(changes) == 1
            assert changes[0].fields["previous"] == "accept"
            queue.set_pressure("block", ceiling=4)
            with queue._lock:
                assert queue._effective_cap_locked() == 4
                assert queue._effective_fsync_locked() == "per_batch"
            queue.set_pressure("accept")
            with queue._lock:
                assert queue._effective_cap_locked() == queue._max_depth
            with pytest.raises(ValueError, match="pressure"):
                queue.set_pressure("panic")
            assert (
                observer.metrics.gauge("service.backpressure").value
                == PRESSURE_LEVELS.index("accept")
            )
        finally:
            queue.stop(drain=False)


# ---------------------------------------------------------------------------
# The engine: disabled gate, closed loop, spec-derived ceiling
# ---------------------------------------------------------------------------


class TestHealthEngine:
    def test_disabled_engine_is_inert(self):
        engine = HealthEngine.disabled()
        assert engine.enabled is False
        assert engine.tick() == []
        engine.record_commit(1.0)  # must not raise (no aggregator exists)
        engine.record_checkout(1.0)
        engine.ingest_event(EventType.COMMIT, {})
        engine.attach_queue(FakeQueue())
        assert engine.report() == {"enabled": False}

    def test_closed_loop_escalates_backpressure(self):
        clock_now = [0.0]
        engine = HealthEngine(
            spec=small_spec(),
            clock=lambda: clock_now[0],
            escalate_after=2,
            relax_after=3,
        )
        queue = FakeQueue(depth=40)  # far over the threshold of 8
        engine.attach_queue(queue, ceiling=8)
        # Each tick samples queue depth; min_samples=3 means the alert
        # can first fire on the third tick, then hysteresis needs 2
        # firing ticks before the first escalation.
        transitions = []
        for at in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            clock_now[0] = at
            transitions.extend(engine.tick(now=at))
        assert any(t["type"] == EventType.SLO_ALERT_FIRED for t in transitions)
        levels = [call[0] for call in queue.calls]
        assert levels == ["degrade_fsync", "block"]
        assert all(call[1] == 8 for call in queue.calls)
        assert engine.stats.backpressure_transitions == 2
        report = engine.report(now=7.0)
        assert report["firing"] == ["depth"]
        assert report["pressure"] == "block"
        assert report["spec"]["fingerprint"] == small_spec().fingerprint()

    def test_ceiling_derived_from_spec_backpressure_gauge(self):
        engine = HealthEngine(spec=small_spec(), clock=lambda: 0.0)
        engine.attach_queue(FakeQueue())
        assert engine.controller.ceiling == 8  # from SMALL_SPEC's threshold
        fleet = HealthEngine(clock=lambda: 0.0)  # shipped spec
        fleet.attach_queue(FakeQueue())
        assert fleet.controller.ceiling == 16

    def test_record_verbs_feed_the_aggregator(self):
        engine = HealthEngine(spec=small_spec(), clock=lambda: 1.0)
        engine.record_commit(0.2, session="s1")
        engine.record_checkout(0.4, session="s1")
        agg = engine.aggregator
        assert agg.window_values("commit.latency_seconds", 60.0, now=1.0) == [0.2]
        assert agg.window_values("checkout.latency_seconds", 60.0, now=1.0) == [0.4]


# ---------------------------------------------------------------------------
# Static and replay evaluation
# ---------------------------------------------------------------------------


class TestEvaluateStatic:
    def test_latency_rate_and_no_data_statuses(self):
        spec = default_spec()
        report = evaluate_static(
            spec,
            {
                "commit.latency_seconds": {"samples": [0.01] * 10},
                "events.queue_write_failed": {"count": 2},
            },
        )
        by_name = {r["slo"]: r for r in report["results"]}
        assert by_name["commit-latency"]["status"] == "ok"
        assert by_name["write-failures"]["status"] == "firing"
        assert by_name["write-failures"]["burn"] == 2.0
        assert by_name["checkout-latency"]["status"] == "no_data"
        assert report["firing"] == ["write-failures"]
        assert report["fingerprint"] == spec.fingerprint()

    def test_burn_is_bad_fraction_over_budget(self):
        spec = small_spec()
        report = evaluate_static(
            spec, {"service.queue_depth": {"samples": [40.0, 1.0, 1.0, 1.0]}}
        )
        depth = next(r for r in report["results"] if r["slo"] == "depth")
        # 1/4 bad over a 0.5 budget → burn 0.5 → under threshold 1.0.
        assert depth["burn"] == 0.5
        assert depth["status"] == "ok"


def lifecycle_records():
    """A synthetic service event stream driving fire → resolve → re-fire.

    Written out longhand (not generated) so the golden file's meaning
    stays legible: depths over threshold fire `depth`, a write failure
    fires `failures`, healthy depths resolve both, a second failure
    re-fires, and the replay tail resolves everything.
    """
    return [
        {"seq": 1, "type": "commit_enqueued", "session": "s1", "depth": 12},
        {"seq": 2, "type": "commit_enqueued", "session": "s1", "depth": 13},
        {"seq": 3, "type": "commit_enqueued", "session": "s2", "depth": 14},
        {"seq": 5, "type": "queue_write_failed", "session": "s1", "node": "t5"},
        {"seq": 8, "type": "commit_enqueued", "session": "s1", "depth": 1},
        {"seq": 16, "type": "commit_enqueued", "session": "s2", "depth": 1},
        {"seq": 17, "type": "commit_enqueued", "session": "s1", "depth": 2},
        {"seq": 30, "type": "queue_write_failed", "session": "s2", "node": "t9"},
    ]


class TestReplayEvents:
    def test_alert_lifecycle_matches_golden(self):
        report = replay_events(small_spec(), lifecycle_records())
        rendered = (
            "\n".join(
                json.dumps(alert, sort_keys=True) for alert in report["alerts"]
            )
            + "\n"
        )
        again = replay_events(small_spec(), lifecycle_records())
        assert report["alerts"] == again["alerts"], "replay must be deterministic"
        assert rendered == GOLDEN_ALERTS.read_text(), (
            "alert lifecycle drifted from tests/golden/health_alerts.jsonl — "
            "the alert sequence must be a pure function of (events, spec); "
            "regenerate only for an intentional semantics change"
        )

    def test_lifecycle_shape(self):
        report = replay_events(small_spec(), lifecycle_records())
        kinds = [(a["slo"], a["type"]) for a in report["alerts"]]
        # Both SLOs fire, resolve on recovery/drain, and `failures`
        # re-fires on the second failure before the tail resolves it.
        assert kinds.count(("failures", EventType.SLO_ALERT_FIRED)) == 2
        assert kinds.count(("failures", EventType.SLO_ALERT_RESOLVED)) == 2
        assert kinds.count(("depth", EventType.SLO_ALERT_FIRED)) == 1
        assert kinds.count(("depth", EventType.SLO_ALERT_RESOLVED)) == 1
        assert report["firing"] == []  # tail pass drained everything
        assert report["events"] == len(lifecycle_records())

    def test_empty_stream(self):
        report = replay_events(small_spec(), [])
        assert report["alerts"] == []
        assert report["events"] == 0


# ---------------------------------------------------------------------------
# Prometheus exporter
# ---------------------------------------------------------------------------


class TestPrometheusExport:
    def test_renders_all_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("commit.count").inc(3)
        registry.gauge("store.head_state_covariables").set(5)
        registry.histogram("service.write_latency_seconds", LATENCY_BUCKETS).record(
            0.004
        )
        text = render_prometheus(registry)
        assert "# TYPE repro_commit_count_total counter\n" in text
        assert "repro_commit_count_total 3\n" in text
        assert "# TYPE repro_store_head_state_covariables gauge\n" in text
        assert 'le="0.005"} 1\n' in text
        assert 'le="+Inf"} 1\n' in text
        assert "service_write_latency_seconds_count 1\n" in text
        assert text.endswith("\n")

    def test_labels_and_determinism(self):
        registry = MetricsRegistry()
        registry.counter("commit.count").inc()
        text = render_prometheus(registry, labels={"store": "fleet.db"})
        assert 'repro_commit_count_total{store="fleet.db"} 1' in text
        assert render_prometheus(registry, labels={"store": "fleet.db"}) == text


# ---------------------------------------------------------------------------
# CLI surfaces: repro health / repro top
# ---------------------------------------------------------------------------


class TestHealthCli:
    def run_health(self, args):
        import io

        from repro.cli import health_main

        out, err = io.StringIO(), io.StringIO()
        code = health_main(args, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def write_events(self, tmp_path, records):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        return str(path)

    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL_SPEC))
        return str(path)

    def test_needs_store_or_events(self):
        code, _, err = self.run_health([])
        assert code == 2
        assert "--store" in err

    def test_strict_fails_on_fired_alert(self, tmp_path):
        events = self.write_events(tmp_path, lifecycle_records())
        spec = self.write_spec(tmp_path)
        code, out, _ = self.run_health(
            ["--events", events, "--slo", spec, "--strict"]
        )
        assert code == 1
        assert "FIRED" in out and "ALERTS FIRED" in out

    def test_strict_passes_on_clean_stream(self, tmp_path):
        events = self.write_events(
            tmp_path,
            [{"seq": i, "type": "commit_enqueued", "session": "s1", "depth": 1}
             for i in range(5)],
        )
        spec = self.write_spec(tmp_path)
        code, out, _ = self.run_health(
            ["--events", events, "--slo", spec, "--strict"]
        )
        assert code == 0
        assert "health: OK" in out

    def test_json_report_shape(self, tmp_path):
        events = self.write_events(tmp_path, lifecycle_records())
        spec = self.write_spec(tmp_path)
        code, out, _ = self.run_health(
            ["--events", events, "--slo", spec, "--format", "json"]
        )
        assert code == 0  # not strict
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["alerts_fired"] == 3
        assert payload["fingerprint"] == small_spec().fingerprint()

    def test_bad_spec_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        events = self.write_events(tmp_path, [])
        code, _, err = self.run_health(["--events", events, "--slo", str(bad)])
        assert code == 2
        assert "repro health:" in err

    def test_prom_format_needs_store(self, tmp_path):
        events = self.write_events(tmp_path, [])
        code, _, err = self.run_health(["--events", events, "--format", "prom"])
        assert code == 2

    def test_store_report_and_prom(self, tmp_path):
        from repro.core.storage import SQLiteCheckpointStore
        from repro.core.session import KishuSession
        from repro.kernel.kernel import NotebookKernel

        path = str(tmp_path / "store.db")
        session = KishuSession.init(
            NotebookKernel(), store=SQLiteCheckpointStore(path)
        )
        session.run_cell("x = 1")
        session.store.close()
        code, out, _ = self.run_health(["--store", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["store"]["store.nodes"] == 1
        code, out, _ = self.run_health(["--store", path, "--format", "prom"])
        assert code == 0
        assert "repro_store_nodes_total 1" in out


class TestTopCli:
    def test_one_frame_over_a_store(self, tmp_path):
        import io

        from repro.cli import top_main
        from repro.core.storage import SQLiteCheckpointStore
        from repro.core.session import KishuSession
        from repro.kernel.kernel import NotebookKernel

        path = str(tmp_path / "store.db")
        session = KishuSession.init(
            NotebookKernel(), store=SQLiteCheckpointStore(path)
        )
        session.run_cell("x = 1")
        session.store.close()
        out, err = io.StringIO(), io.StringIO()
        code = top_main(["--store", path, "--iterations", "1"], out, err)
        assert code == 0
        text = out.getvalue()
        assert "repro top" in text and "1 commit(s)" in text
        assert "default" in text

    def test_bytes_are_each_sessions_physical_total(self, tmp_path):
        """Two sessions and two versions share blocks: each row shows
        the session's total_payload_bytes(), and the header counts every
        shared block once."""
        import io
        import random

        from repro.cli import top_main
        from repro.core.storage import (
            BLOCK_BYTES,
            SQLiteCheckpointStore,
            StoredNode,
            StoredPayload,
            persist_checkpoint,
        )

        first = random.Random(0).randbytes(3 * BLOCK_BYTES)
        second = first[:-4] + b"edit"
        path = str(tmp_path / "store.db")
        store = SQLiteCheckpointStore(path)
        expected = {}
        for session_id, versions in (("alpha", [first, second]), ("beta", [first])):
            view = store.for_session(session_id)
            for number, data in enumerate(versions, 1):
                node = StoredNode(f"t{number}", None, number, number, "x = f()", (), ())
                payload = StoredPayload(node.node_id, frozenset({"x"}), data, "pickle")
                persist_checkpoint(view, node, [payload])
            expected[session_id] = view.total_payload_bytes()
        store.close()
        assert expected == {"alpha": 4 * BLOCK_BYTES, "beta": 3 * BLOCK_BYTES}

        out, err = io.StringIO(), io.StringIO()
        assert top_main(["--store", path, "--iterations", "1"], out, err) == 0
        header, _, *lines = out.getvalue().splitlines()
        assert f"3 commit(s)  {4 * BLOCK_BYTES} payload byte(s)" in header
        shown = {line.split()[0]: int(line.split()[3]) for line in lines}
        assert shown == {"alpha": expected["alpha"], "beta": expected["beta"], "default": 0}

    def test_missing_store(self, tmp_path):
        import io

        from repro.cli import top_main

        out, err = io.StringIO(), io.StringIO()
        code = top_main([ "--store", str(tmp_path / "nope.db")], out, err)
        assert code == 2
        assert "no such store" in err.getvalue()

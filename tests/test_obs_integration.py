"""End-to-end tests of the observability layer (ISSUE 5 acceptance).

The acceptance criteria, verified on real sessions:

* a commit + checkout on a shared-referencing workload exports a Chrome
  trace covering **both** lifecycles end-to-end (cell execution →
  analysis → detection → serialization → store commit; LCA planning →
  materialization → replay-or-legacy → namespace mutation);
* every replay-plan decline and every cross-validation escalation
  appears in the structured event log with a reason;
* fault injections, retries, and recovery sweeps are events too, and the
  crash-consistency harness can read them back from a written JSONL log;
* ``repro stats`` output is deterministic and golden-tested
  (``tests/golden/stats_store.json`` / ``.txt``);
* ``observe=False`` keeps the whole session working with zero recorded
  spans, metrics, and events.
"""

from __future__ import annotations

import io
import json
import pathlib

import pytest

from repro.core.covariable import covar_key
from repro.core.retry import RetryPolicy
from repro.core.session import KishuSession
from repro.core.storage import (
    InMemoryCheckpointStore,
    SQLiteCheckpointStore,
    StoredNode,
    StoredPayload,
)
from repro.errors import SimulatedCrash
from repro.faults import FaultInjectingStore, FaultPlan
from repro.kernel.kernel import NotebookKernel
from repro.obs import NO_OBSERVER, EventLog, EventType, Observer
from repro.obs.report import registry_from_store, render_store_stats, stats_as_dict

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Plain-python shared-referencing cells: ``bundle`` aliases ``base`` so
#: the two fuse into one co-variable, and ``derived`` depends on it.
SHARED_CELLS = (
    "base = [1, 2, 3]",
    "bundle = [base, [0]]",
    "derived = [x * 2 for x in base]",
)


def tombstone_payload(session, key, node_id):
    session.store.write_payload(
        StoredPayload(node_id=node_id, key=key, data=None, serializer=None)
    )


def run_shared_workload_with_checkout(session):
    """Commit the shared-referencing cells, then force a checkout whose
    ``derived`` payload is gone — exercising replay inside checkout."""
    for source in SHARED_CELLS:
        session.run_cell(source)
    target = session.head_id
    key = covar_key({"derived"})
    version = session.graph.get(target).state.version_of(key)
    session.run_cell("derived = None")
    tombstone_payload(session, key, version)
    report = session.checkout(target)
    assert session.kernel.get("derived") == [2, 4, 6]
    assert session.kernel.get("bundle")[0] is session.kernel.get("base")
    return report


class TestAcceptanceTrace:
    """One trace covers commit and checkout lifecycles end-to-end."""

    COMMIT_SPANS = (
        "cell",
        "cell.analyze",
        "cell.exec",
        "commit",
        "commit.crossval",
        "commit.detect",
        "commit.serialize",
        "commit.persist",
    )
    CHECKOUT_SPANS = (
        "checkout",
        "checkout.plan",
        "checkout.materialize",
        "replay.plan",
        "replay.execute",
        "checkout.apply",
        "checkout.resync",
        "checkout.resync_summaries",
    )

    def test_trace_covers_both_lifecycles(self, tmp_path):
        session = KishuSession.init(NotebookKernel())
        report = run_shared_workload_with_checkout(session)

        names = {span.name for span in session.observer.tracer.all_spans()}
        for expected in self.COMMIT_SPANS + self.CHECKOUT_SPANS:
            assert expected in names, f"span {expected!r} missing from trace"

        # Nesting: the commit lifecycle hangs off the cell span (the POST
        # trigger fires inside run_cell), and replay hangs off checkout.
        cell_roots = [r for r in session.observer.tracer.roots if r.name == "cell"]
        assert any(root.find("commit.persist") for root in cell_roots)
        checkout_root = next(
            r for r in session.observer.tracer.roots if r.name == "checkout"
        )
        assert checkout_root.find("replay.execute") is not None
        assert checkout_root.find("checkout.resync") is not None
        # The analysis resync is part of what the checkout reports it took.
        resync = checkout_root.find("checkout.resync_summaries")
        assert resync is not None
        assert report.seconds >= checkout_root.duration >= resync.duration
        # Wall/CPU timing is recorded (values themselves are not asserted).
        assert checkout_root.duration > 0.0

        # The Chrome export round-trips through JSON with every span.
        out = tmp_path / "trace.json"
        session.observer.tracer.write_chrome_trace(str(out))
        payload = json.loads(out.read_text())
        exported = {event["name"] for event in payload["traceEvents"]}
        assert set(self.COMMIT_SPANS + self.CHECKOUT_SPANS) <= exported
        assert all("cpu_us" in e["args"] for e in payload["traceEvents"])

    def test_commit_and_checkout_events_emitted(self):
        session = KishuSession.init(NotebookKernel())
        run_shared_workload_with_checkout(session)
        events = session.observer.events
        commits = events.of_type(EventType.COMMIT)
        assert len(commits) == len(SHARED_CELLS) + 1  # + the divergence cell
        assert commits[0].fields["node"] == "t1"
        assert commits[0].fields["updated"] >= 1
        (checkout,) = events.of_type(EventType.CHECKOUT)
        assert checkout.fields["recomputes"] >= 1
        assert session.observer.metrics.counter("commit.count").value == 4
        assert session.observer.metrics.counter("checkout.count").value == 1

    def test_cell_metrics_carry_span_derived_numbers(self):
        # Satellite (b): serialized bytes and store-write duration ride on
        # CellCheckpointMetrics, sourced from the commit.persist span.
        session = KishuSession.init(NotebookKernel())
        session.run_cell("payload = list(range(100))")
        metric = session.metrics[-1]
        assert metric.serialized_bytes > 0
        assert metric.serialized_bytes >= metric.bytes_written
        assert metric.store_write_seconds > 0.0

    def test_store_write_seconds_falls_back_when_disabled(self):
        session = KishuSession.init(NotebookKernel(), observe=False)
        session.run_cell("payload = list(range(100))")
        metric = session.metrics[-1]
        assert metric.serialized_bytes > 0
        assert metric.store_write_seconds > 0.0  # perf_counter fallback


class TestReasonedEvents:
    def test_crossval_escalation_event_carries_reasons(self):
        session = KishuSession.init(NotebookKernel())
        session.run_cell("exec('opaque = 1')")
        escalations = session.observer.events.of_type(EventType.CROSSVAL_ESCALATION)
        assert escalations, "escaped cell must log an escalation event"
        event = escalations[-1]
        assert event.fields["reasons"], "escalation must carry its reasons"
        assert event.fields["execution_count"] == 1
        assert session.analysis_stats.escalations >= 1
        assert (
            session.observer.metrics.counter("events.crossval_escalation").value
            == len(escalations)
        )

    def test_tombstone_degradation_event(self):
        # A permanent storage fault on the payload write degrades it to a
        # tombstone mid-checkpoint; the degradation must carry its
        # co-variable in the event log.
        store = FaultInjectingStore(
            InMemoryCheckpointStore(),
            FaultPlan.fail_nth_write(0, kind="permanent"),
        )
        session = KishuSession.init(NotebookKernel(), store=store)
        session.run_cell("f = [1, 2, 3]")
        assert session.head_id == "t1"
        assert session.metrics[-1].degraded_payloads == 1
        degraded = session.observer.events.of_type(EventType.TOMBSTONE_DEGRADED)
        assert degraded, "degraded payload must log its degradation"
        assert degraded[-1].fields["covariable"] == ["f"]
        assert degraded[-1].fields["node"] == session.head_id
        assert degraded[-1].fields["bytes_dropped"] > 0


class TestFaultRetryRecoveryEvents:
    def test_transient_fault_retry_is_an_event(self):
        store = FaultInjectingStore(
            InMemoryCheckpointStore(),
            FaultPlan.fail_nth_write(0, kind="transient", times=1),
        )
        retry = RetryPolicy(base_delay=0.0, sleep=lambda _s: None)
        session = KishuSession.init(NotebookKernel(), store=store, retry=retry)
        session.run_cell("x = 1")
        assert session.head_id == "t1"  # absorbed, zero data loss

        injected = session.observer.events.of_type(EventType.FAULT_INJECTED)
        assert injected and injected[0].fields["kind"] == "TransientStorageError"
        retries = session.observer.events.of_type(EventType.RETRY)
        assert retries and retries[0].fields["attempt"] == 1
        assert retries[0].fields["error"]

    def test_crash_and_recovery_events_roundtrip_jsonl(self, tmp_path):
        # Satellite (f): the crash-consistency harness's reboot path reads
        # fault/recovery actions back from a written event log.
        # First commit's checkpoint-protocol ops: begin(0), the payload
        # write(1), the node write(2), commit(3) — crash at the commit so
        # the staged node is torn and the reboot sweep has work to report.
        store = FaultInjectingStore(
            InMemoryCheckpointStore(), FaultPlan.crash_at_checkpoint_op(3)
        )
        session = KishuSession.init(NotebookKernel(), store=store)
        with pytest.raises(SimulatedCrash):
            session.run_cell("x = 1")
        assert store.crashed

        # Reboot: sweep the torn checkpoint through the wrapper so the
        # sweep publishes into the session's event log.
        report = store.recover()
        assert not report.clean and report.swept_nodes

        events = session.observer.events
        crash = events.of_type(EventType.FAULT_INJECTED)[-1]
        assert crash.fields["kind"] == "crash"
        assert crash.fields["op"] == "commit_checkpoint"
        recovery = events.of_type(EventType.RECOVERY)[-1]
        assert recovery.fields["swept_nodes"] == list(report.swept_nodes)
        assert (
            session.observer.metrics.counter("store.recoveries").value == 1
        )

        # Write, read back, and find the same reasons — what the harness
        # does after a simulated reboot.
        path = tmp_path / "events.jsonl"
        events.write_jsonl(str(path))
        records = EventLog.read_jsonl(str(path))
        kinds = {record["type"] for record in records}
        assert {"fault_injected", "recovery"} <= kinds
        read_crash = [r for r in records if r["type"] == "fault_injected"][-1]
        assert read_crash["kind"] == "crash"
        read_recovery = [r for r in records if r["type"] == "recovery"][-1]
        assert read_recovery["swept_nodes"] == list(report.swept_nodes)


class TestDisabledObserver:
    def test_session_works_with_zero_recording(self):
        session = KishuSession.init(NotebookKernel(), observe=False)
        run_shared_workload_with_checkout(session)
        assert session.observer is NO_OBSERVER
        assert list(session.observer.tracer.all_spans()) == []
        assert len(session.observer.events) == 0
        assert len(session.observer.metrics) == 0
        # Stats views still work (reads return zeros from NO_OBSERVER's
        # registry only if something wrote there — nothing may).
        assert session.plan_stats.plans_executed >= 0

    def test_shared_observer_across_sessions(self):
        observer = Observer()
        first = KishuSession.init(NotebookKernel(), observe=observer)
        second = KishuSession.init(NotebookKernel(), observe=observer)
        first.run_cell("x = 1")
        second.run_cell("y = 2")
        assert observer.metrics.counter("commit.count").value == 2


# ---------------------------------------------------------------------------
# Golden-tested `repro stats`
# ---------------------------------------------------------------------------


def populate_golden_store(store) -> None:
    """Deterministic store contents for the golden stats files.

    Fixed raw byte payloads (never pickles — pickle framing differs
    across interpreter versions) and fixed timestamps, exercising every
    ``store.*`` metric: stored payloads, a tombstone, and a version
    carried forward across a commit (a dedup hit).
    """
    a, b = covar_key({"a"}), covar_key({"b"})

    store.begin_checkpoint("t1")
    store.write_payload(StoredPayload("t1", a, b"\x00" * 100, "raw"))
    store.write_node(
        StoredNode("t1", None, 1, 1, "a = blob(100)", (), ((a, "t1"),))
    )
    store.commit_checkpoint("t1")

    store.begin_checkpoint("t2")
    store.write_payload(StoredPayload("t2", b, b"\x01" * 5000, "raw"))
    store.write_node(
        StoredNode("t2", "t1", 2, 2, "b = blob(5000)", (), ((b, "t2"),))
    )
    store.commit_checkpoint("t2")

    store.begin_checkpoint("t3")
    store.write_payload(StoredPayload("t3", b, None, None))  # tombstone
    store.write_node(
        StoredNode("t3", "t2", 3, 3, "b.mutate()", (), ((b, "t3"),))
    )
    store.commit_checkpoint("t3")


class TestGoldenStoreStats:
    def render_json(self) -> str:
        store = InMemoryCheckpointStore()
        populate_golden_store(store)
        registry = registry_from_store(store)
        return json.dumps(stats_as_dict(registry), indent=2, sort_keys=True) + "\n"

    def test_json_matches_golden(self):
        first, second = self.render_json(), self.render_json()
        assert first == second, "store stats must be byte-stable"
        golden = (GOLDEN_DIR / "stats_store.json").read_text()
        assert first == golden

    def test_semantics_of_golden_numbers(self):
        store = InMemoryCheckpointStore()
        populate_golden_store(store)
        registry = registry_from_store(store)
        assert registry.counter("store.nodes").value == 3
        assert registry.counter("store.payloads_stored").value == 2
        assert registry.counter("store.tombstones").value == 1
        # t2 and t3 both carry {a}@t1 forward by reference: 2 dedup hits.
        assert registry.counter("store.dedup_hits").value == 2
        # Incremental wrote 5100 B; a monolithic checkpointer would have
        # written {a} at t1, {a}+{b} at t2, and {a} again at t3 (t3's {b}
        # version is a tombstone with no bytes): 100+5100+100.
        assert registry.counter("store.incremental_bytes").value == 5100
        assert registry.counter("store.monolithic_bytes").value == 5300

    def test_cli_stats_text_matches_golden(self, tmp_path, capsys):
        from repro.cli import stats_main

        db = tmp_path / "golden.db"
        store = SQLiteCheckpointStore(str(db))
        populate_golden_store(store)
        store.close()

        outputs = []
        for _ in range(2):
            stats_main(["--store", str(db)])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], "repro stats must be byte-stable"
        golden = (GOLDEN_DIR / "stats_store.txt").read_text()
        assert outputs[0] == golden

    def test_cli_stats_json_mode(self, tmp_path, capsys):
        from repro.cli import stats_main

        db = tmp_path / "golden.db"
        store = SQLiteCheckpointStore(str(db))
        populate_golden_store(store)
        store.close()
        stats_main(["--store", str(db), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["store.nodes"] == 3
        assert payload["store.size_ratio_incremental_vs_monolithic"] == round(
            5100 / 5300, 4
        )

"""Interactive notebook REPL with the Kishu command palette.

The SIGMOD 2025 demo paper showcases Kishu through an in-notebook command
palette (``init`` / ``log`` / ``checkout``). This module provides that
experience at a terminal: a read-eval loop where ordinary input runs as
notebook cells (auto-checkpointed by Kishu) and ``%``-prefixed commands
drive time travel.

Commands:
    %log                 show the checkpoint graph (head marked with *)
    %checkout <ref>      restore a state (checkpoint id, branch, or tag)
    %undo                restore the state before the last cell
    %tag <name> [ref]    name a checkpoint (immutable)
    %branch <name>       start a named branch at the head and switch to it
    %vars                list user variables
    %state               show the head's co-variable versions
    %telemetry           walk-cache, static-analysis, and replay counters
    %trace [--out FILE]  show the lifecycle span tree (or export Chrome trace)
    %stats               session metrics registry (counters and histograms)
    %events [type]       structured event log (optionally filtered by type)
    %lint [source]       lint the session's history (or an inline snippet)
    %summaries           show live interprocedural function summaries
    %replay-plan <names> show the minimal replay plan for variables at a ref
    %recover             scan the store for torn checkpoints and sweep them
    %help                command summary
    %quit                leave the session

Run:  python -m repro.cli [--store PATH] [--trace-out FILE]
      python -m repro.cli lint [--format text|json] [--notebook] FILE...
      python -m repro.cli summaries [--format text|json] FILE...
      python -m repro.cli stubs [--format text|json] [--stub FILE] list
      python -m repro.cli stubs [--format text|json] [--stub FILE] check FILE...
      python -m repro.cli plan [--format text|json] [--targets a,b] [--trace-out FILE] FILE
      python -m repro.cli stats --store PATH [--format text|json]
      python -m repro.cli fuzz [--seed S] [--iterations N] [--cells N] [--minimize]
      python -m repro.cli fuzz --soak N [--service] [--slo FILE] [--events-out FILE]
      python -m repro.cli sessions list --store PATH [--status S] [--json]
      python -m repro.cli sessions resume --store PATH SESSION_ID
      python -m repro.cli sessions rename --store PATH SESSION_ID NEW_PATH
      python -m repro.cli health --store PATH [--slo FILE] [--events FILE] [--strict]
      python -m repro.cli top --store PATH [--interval S] [--iterations N]

With ``--store`` the session checkpoints into a durable SQLite database;
if the file already holds history (e.g. from a session that crashed),
the REPL resumes it: any torn checkpoint left by the crash is swept by
the recovery scan (reported at startup), and the last committed state is
restored into the fresh kernel.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Callable, Dict, List, Optional, TextIO

from repro.analysis import JsonReporter, LintEngine, Severity, TextReporter, worst_severity
from repro.core.graph import ROOT_ID
from repro.core.session import KishuSession
from repro.core.storage import CheckpointStore, SQLiteCheckpointStore, read_store_usage
from repro.errors import KishuError, StoreBusyError
from repro.kernel.kernel import NotebookKernel
from repro.parsing import parse

PROMPT_TEMPLATE = "In [{count}]: "


class KishuRepl:
    """A line-oriented notebook session with time-travel commands."""

    def __init__(
        self,
        stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None,
        store: Optional[CheckpointStore] = None,
        **session_kwargs,
    ) -> None:
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.kernel = NotebookKernel()
        if store is not None and store.read_nodes():
            # The store already holds committed history — resume it
            # (restoring the last committed head) instead of starting over.
            self.session = KishuSession.resume(self.kernel, store, **session_kwargs)
            self._resumed = True
        else:
            self.session = KishuSession.init(self.kernel, store=store, **session_kwargs)
            self._resumed = False
        self._running = False
        self._commands: Dict[str, Callable[[List[str]], None]] = {
            "log": self._cmd_log,
            "checkout": self._cmd_checkout,
            "undo": self._cmd_undo,
            "tag": self._cmd_tag,
            "branch": self._cmd_branch,
            "vars": self._cmd_vars,
            "state": self._cmd_state,
            "telemetry": self._cmd_telemetry,
            "trace": self._cmd_trace,
            "stats": self._cmd_stats,
            "events": self._cmd_events,
            "lint": self._cmd_lint,
            "summaries": self._cmd_summaries,
            "replay-plan": self._cmd_replay_plan,
            "recover": self._cmd_recover,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }

    # -- loop -------------------------------------------------------------------

    def run(self) -> None:
        """Read and execute lines until EOF or %quit."""
        self._running = True
        self._print("kishu session started — %help for commands")
        recovery = self.session.store.last_recovery
        if recovery is not None and not recovery.clean:
            self._print(f"recovery: {recovery.summary()}")
        if self._resumed:
            self._print(
                f"resumed durable session at {self.session.head_id} "
                f"({len(self.session.log())} checkpoint(s))"
            )
        while self._running:
            self._print(
                PROMPT_TEMPLATE.format(count=self.kernel.execution_count + 1),
                end="",
            )
            line = self.stdin.readline()
            if not line:
                break
            self.execute(line.rstrip("\n"))

    def execute(self, line: str) -> None:
        """Execute one input line (a cell or a %command)."""
        stripped = line.strip()
        if not stripped:
            return
        if stripped.startswith("%"):
            self._dispatch(stripped[1:])
            return
        result = self.kernel.run_cell(line, raise_on_error=False)
        if result.stdout:
            self._print(result.stdout, end="")
        if result.error is not None:
            self._print(f"error: {type(result.error).__name__}: {result.error}")
        elif result.value is not None:
            self._print(f"Out[{result.execution_count}]: {result.value!r}")

    # -- commands -----------------------------------------------------------------

    def _dispatch(self, command_line: str) -> None:
        parts = command_line.split()
        name, arguments = parts[0], parts[1:]
        handler = self._commands.get(name)
        if handler is None:
            self._print(f"unknown command %{name} — try %help")
            return
        handler(arguments)

    def _cmd_log(self, arguments: List[str]) -> None:
        entries = self.session.log()
        if not entries:
            self._print("(no checkpoints yet)")
            return
        for entry in entries:
            marker = "*" if entry.is_head else " "
            decoration = f" ({', '.join(entry.refs)})" if entry.refs else ""
            self._print(
                f" {marker} {entry.node_id}{decoration}  "
                f"[{entry.execution_count}]  {entry.code_preview}"
            )

    def _cmd_checkout(self, arguments: List[str]) -> None:
        if len(arguments) != 1:
            self._print("usage: %checkout <checkpoint-id>")
            return
        try:
            report = self.session.checkout(arguments[0])
        except KishuError as exc:
            self._print(f"checkout failed: {exc}")
            return
        self._print(
            f"checked out {arguments[0]}: loaded {len(report.loaded_keys)}, "
            f"recomputed {len(report.recomputed_keys)}, "
            f"deleted {len(report.deleted_names)} "
            f"({report.seconds * 1e3:.1f} ms)"
        )

    def _cmd_undo(self, arguments: List[str]) -> None:
        head = self.session.graph.head
        if head.node_id == ROOT_ID or head.parent_id is None:
            self._print("nothing to undo")
            return
        self._cmd_checkout([head.parent_id])

    def _cmd_tag(self, arguments: List[str]) -> None:
        if not 1 <= len(arguments) <= 2:
            self._print("usage: %tag <name> [checkpoint-id]")
            return
        try:
            node_id = self.session.tag(*arguments)
        except KishuError as exc:
            self._print(f"tag failed: {exc}")
            return
        self._print(f"tagged {node_id} as {arguments[0]!r}")

    def _cmd_branch(self, arguments: List[str]) -> None:
        if len(arguments) != 1:
            self._print("usage: %branch <name>")
            return
        try:
            node_id = self.session.branch(arguments[0])
        except KishuError as exc:
            self._print(f"branch failed: {exc}")
            return
        self._print(f"created branch {arguments[0]!r} at {node_id} (now active)")

    def _cmd_vars(self, arguments: List[str]) -> None:
        variables = self.kernel.user_variables()
        if not variables:
            self._print("(empty namespace)")
            return
        for name in sorted(variables):
            value = variables[name]
            self._print(f"  {name}: {type(value).__qualname__}")

    def _cmd_state(self, arguments: List[str]) -> None:
        state = self.session.graph.head.state
        for key, version in sorted(state.items(), key=lambda kv: sorted(kv[0])):
            names = ", ".join(sorted(key))
            self._print(f"  {{{names}}} @ {version}")

    def _cmd_telemetry(self, arguments: List[str]) -> None:
        """Cumulative walk counters: is tracking cost tracking the delta?"""
        total = self.session.total_walk_stats()
        builder = self.session.pool.builder
        self._print("walk telemetry (all checkpoints):")
        self._print(f"  objects visited     {total.objects_visited}")
        self._print(f"  graphs built        {total.graphs_built}")
        self._print(
            f"  cache hits/misses   {total.cache_hits}/{total.cache_misses}"
            f"  (hit ratio {total.hit_ratio:.0%})"
        )
        self._print(f"  nodes spliced       {total.nodes_spliced}")
        self._print(f"  bytes hashed        {total.bytes_hashed}")
        self._print(f"  cache invalidations {total.cache_invalidations}")
        cache = getattr(builder, "cache", None)
        if cache is not None:
            self._print(
                f"  cache now           {len(cache)} entries, "
                f"{cache.total_nodes} nodes"
            )
        else:
            self._print("  incremental walk cache disabled")
        stats = self.session.analysis_stats
        self._print("static analysis (DESIGN.md §8):")
        self._print(f"  cells analyzed      {stats.cells_analyzed}")
        self._print(f"  escapes found       {stats.escapes_found}")
        self._print(
            f"  predictions         {stats.predictions_confirmed} confirmed / "
            f"{stats.predictions_violated} violated"
        )
        self._print(f"  escalations         {stats.escalations}")
        self._print(f"  read-only skips     {stats.read_only_skips}")
        self._print(
            f"  stub expansions     {stats.stub_expansions} "
            f"(unknown {stats.stub_unknown_calls}, "
            f"mismatches {stats.stub_mismatches})"
        )
        plans = self.session.plan_stats
        self._print("replay planner (DESIGN.md §10):")
        self._print(f"  plans computed      {plans.plans_computed}")
        self._print(
            f"  plans executed      {plans.plans_executed} "
            f"(declined {plans.plans_declined}, unsafe {plans.unsafe_plans})"
        )
        self._print(
            f"  cells replayed      {plans.cells_replayed} "
            f"(skipped {plans.cells_skipped}, loads {plans.payload_loads})"
        )
        self._print(f"  validation mismatches {plans.validation_mismatches}")
        declines = plans.declines_by_reason()
        if declines:
            rendered = ", ".join(f"{k}: {v}" for k, v in declines.items())
            self._print(f"  declines by reason  {rendered}")
        metrics = self.session.metrics
        if metrics:
            # Per-cell checkpoint size/time — the live Fig 13/14 numbers,
            # from the commit.serialize / commit.persist spans.
            self._print("per-cell checkpoints (size / store-write time):")
            for metric in metrics:
                self._print(
                    f"  {metric.node_id}  [{metric.execution_count}]  "
                    f"{metric.serialized_bytes} B serialized "
                    f"({metric.bytes_written} B written), "
                    f"store write {metric.store_write_seconds * 1e3:.2f} ms, "
                    f"checkpoint {metric.checkpoint_seconds * 1e3:.2f} ms"
                )

    def _cmd_trace(self, arguments: List[str]) -> None:
        """Show the lifecycle span tree, or export Chrome trace JSON.

        Usage: %trace [--out FILE] [--last N]. The exported file opens in
        chrome://tracing or Perfetto.
        """
        observer = self.session.observer
        if not observer.enabled:
            self._print("tracing disabled (session started with observe=False)")
            return
        out_path: Optional[str] = None
        last: Optional[int] = None
        index = 0
        while index < len(arguments):
            if arguments[index] == "--out" and index + 1 < len(arguments):
                out_path = arguments[index + 1]
                index += 2
            elif arguments[index] == "--last" and index + 1 < len(arguments):
                try:
                    last = int(arguments[index + 1])
                except ValueError:
                    self._print("usage: %trace [--out FILE] [--last N]")
                    return
                index += 2
            else:
                self._print("usage: %trace [--out FILE] [--last N]")
                return
        if out_path is not None:
            observer.tracer.write_chrome_trace(out_path)
            spans = sum(1 for _ in observer.tracer.all_spans())
            self._print(f"wrote {spans} span(s) to {out_path}")
            return
        self._print(observer.tracer.format_tree(last=last))

    def _cmd_stats(self, arguments: List[str]) -> None:
        """Print the session metrics registry (deterministic ordering)."""
        observer = self.session.observer
        if not observer.enabled:
            self._print("metrics disabled (session started with observe=False)")
            return
        text = observer.metrics.render_text()
        self._print(text if text else "(no metrics recorded)")

    def _cmd_events(self, arguments: List[str]) -> None:
        """Show the structured event log, optionally filtered by type."""
        observer = self.session.observer
        if not observer.enabled:
            self._print("event log disabled (session started with observe=False)")
            return
        events = (
            observer.events.of_type(*arguments)
            if arguments
            else list(observer.events)
        )
        if not events:
            self._print("(no events recorded)")
            return
        for event in events:
            fields = ", ".join(
                f"{key}={value}" for key, value in sorted(event.fields.items())
            )
            self._print(f"  #{event.seq} {event.type}  {fields}")

    def _cmd_lint(self, arguments: List[str]) -> None:
        """Lint executed cells — or an inline snippet given as arguments.

        The session's history is linted as one notebook, so the
        inter-cell KSH30x rules (use-before-def, dead writes,
        execution-order divergence, escaped dependencies) fire alongside
        the per-cell rules.
        """
        engine = LintEngine()
        if arguments:
            findings = engine.lint_source(" ".join(arguments), label="<input>")
        else:
            cells = [
                (f"In[{result.execution_count}]", result.cell.source)
                for result in self.kernel.history
            ]
            if not cells:
                self._print("(no cells executed yet)")
                return
            counts = [result.execution_count for result in self.kernel.history]
            findings = engine.lint_notebook(cells, execution_counts=counts)
        self._print(TextReporter().render(findings))

    def _cmd_summaries(self, arguments: List[str]) -> None:
        """Show the session's live interprocedural function summaries.

        The table is the one the pre-run analyzer consults (DESIGN.md
        §14): helpers defined by committed cells, closed over their
        direct calls, minus anything invalidated by rebinds.
        """
        table = self.session.summaries
        if table is None:
            self._print("summaries disabled (session started with use_summaries=False)")
            return
        self._print(render_summaries_text(table.to_report()))

    def _cmd_replay_plan(self, arguments: List[str]) -> None:
        """Show the minimal replay plan reconstructing variables at a ref.

        Usage: %replay-plan <name> [name...] [@ref]. Without @ref the
        plan targets the head. Costs are measured cell durations where
        available (CellCheckpointMetrics), AST size otherwise.
        """
        names = [arg for arg in arguments if not arg.startswith("@")]
        refs = [arg[1:] for arg in arguments if arg.startswith("@")]
        if not names or len(refs) > 1:
            self._print("usage: %replay-plan <name> [name...] [@ref]")
            return
        try:
            plan = self.session.plan_replay(names, refs[0] if refs else None)
        except KishuError as exc:
            self._print(f"replay-plan failed: {exc}")
            return
        self._print(plan.format())

    def _cmd_recover(self, arguments: List[str]) -> None:
        try:
            report = self.session.store.recover()
        except KishuError as exc:
            self._print(f"recover failed: {exc}")
            return
        self._print(report.summary())

    def _cmd_help(self, arguments: List[str]) -> None:
        self._print(__doc__.split("Commands:")[1].split("Run:")[0].rstrip())

    def _cmd_quit(self, arguments: List[str]) -> None:
        self._running = False
        self._print("bye")

    # -- output --------------------------------------------------------------------

    def _print(self, text: str, end: str = "\n") -> None:
        self.stdout.write(text + end)
        self.stdout.flush()


def _open_store_strict(
    path: str, err: TextIO, *, prog: str
) -> Optional[SQLiteCheckpointStore]:
    """Open a durable checkpoint store for reading, with clear failures.

    ``SQLiteCheckpointStore`` happily *creates* a missing database, which
    turns a typo'd path into a silently empty report; read-only commands
    must refuse instead. Corrupt files (not SQLite, or SQLite without our
    schema) fail here with one actionable message rather than a raw
    sqlite3 traceback. Returns None after printing to ``err``.
    """
    import sqlite3

    if not os.path.exists(path):
        err.write(f"{prog}: store not found: {path}\n")
        return None
    try:
        store = SQLiteCheckpointStore(path)
    except Exception as exc:
        err.write(f"{prog}: cannot open store {path}: {exc}\n")
        return None
    try:
        store.read_nodes()
    except (sqlite3.DatabaseError, KishuError) as exc:
        store.close()
        err.write(
            f"{prog}: not a valid checkpoint store: {path} "
            f"({type(exc).__name__}: {exc})\n"
        )
        return None
    return store


def lint_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro lint`` — run the static cell analysis over script files.

    Each file is linted as one cell (our example scripts and exported
    notebooks are plain ``.py`` files). Exits non-zero only on
    ``ERROR``-severity findings, or on any warning with ``--strict``.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static cell-effect lint (escape hatches, read-only cells).",
    )
    parser.add_argument("paths", metavar="FILE", nargs="+", help="python files to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_"
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    parser.add_argument(
        "--notebook",
        action="store_true",
        help="treat each file as a notebook (split into cells, run the "
        "inter-cell KSH30x rules)",
    )
    args = parser.parse_args(argv)

    engine = LintEngine()
    cells = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                cells.append((path, handle.read()))
        except OSError as exc:
            err.write(f"repro lint: cannot read {path}: {exc}\n")
            return 2
    if args.notebook:
        from repro.analysis import split_script_cells

        findings = []
        for path, source in cells:
            notebook_cells = [
                (f"{path}[{index}]", cell_source)
                for index, cell_source in enumerate(split_script_cells(source))
            ]
            findings.extend(engine.lint_notebook(notebook_cells))
    else:
        findings = engine.lint_cells(cells)
    reporter = JsonReporter() if args.format_ == "json" else TextReporter()
    out.write(reporter.render(findings) + "\n")
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if findings and worst_severity(findings) >= threshold else 0


def render_summaries_text(report: dict) -> str:
    """Human-readable rendering of a summary-table report."""
    stats = report["stats"]
    lines = [
        f"{report['cells']} cell(s) — {stats['live']} live function "
        f"summaries ({stats['tracking_safe']} tracking-safe), "
        f"{stats['invalidated']} invalidation(s)"
    ]
    for function in report["functions"]:
        parts = [
            f"  {function['name']}({', '.join(function['params'])})"
            f"  [cell {function['cell']}]"
        ]
        for label, key in (
            ("reads", "reads"),
            ("writes", "writes"),
            ("deletes", "deletes"),
            ("mutates globals", "mutates_globals"),
            ("mutates params", "mutates_params"),
            ("returns", "returns_aliases"),
        ):
            if function[key]:
                parts.append(f"{label}: {', '.join(function[key])}")
        if function["escapes"]:
            kinds = sorted({escape["kind"] for escape in function["escapes"]})
            parts.append("escapes: " + ", ".join(kinds))
        if function["calls_unknown"]:
            parts.append("calls-unknown")
        lines.append("  ".join(parts))
    for record in report["invalidations"]:
        lines.append(
            f"  ! cell {record['cell']}: {record['name']!r} invalidated "
            f"({record['reason']})"
        )
    return "\n".join(lines)


def _summaries_paths(
    raw_paths: List[str], err: TextIO, prog: str = "repro summaries"
) -> List[str]:
    """Expand directories to their sorted ``*.py`` files.

    An empty directory is a note, not an error — the caller fails (exit
    2) only when *nothing* across all arguments is analyzable.
    """
    paths: List[str] = []
    for path in raw_paths:
        if os.path.isdir(path):
            entries = sorted(
                os.path.join(path, entry)
                for entry in os.listdir(path)
                if entry.endswith(".py")
            )
            if not entries:
                err.write(f"{prog}: note: no .py files in {path}\n")
            paths.extend(entries)
        else:
            paths.append(path)
    return paths


def _read_script(path: str, err: TextIO, prog: str) -> Optional[str]:
    """Read one script for analysis, or note why it was skipped.

    Unreadable and unparseable files are skipped with a note on stderr
    (a directory sweep should not die on one scratch file); ``None``
    means skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        err.write(f"{prog}: note: skipping {path}: {exc}\n")
        return None
    try:
        parse(source)
    except SyntaxError as exc:
        err.write(
            f"{prog}: note: skipping {path}: syntax error on line "
            f"{exc.lineno}\n"
        )
        return None
    return source


def summaries_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro summaries`` — interprocedural function-effect summaries.

    Splits each script into notebook-style cells (``# %%`` separators,
    else one cell per top-level statement), feeds them through the
    :class:`~repro.analysis.summaries.NotebookSummaries` table in order,
    and prints the surviving summaries, invalidation events, and stats.
    ``--format json`` is byte-stable for a given input (sorted keys and
    name lists) — the golden-test contract.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro summaries",
        description="Interprocedural function-effect summaries over "
        "notebook-style scripts.",
    )
    parser.add_argument(
        "paths",
        metavar="FILE",
        nargs="+",
        help="python files (or directories of them) to summarize",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_"
    )
    args = parser.parse_args(argv)

    import json as json_module

    from repro.analysis import split_script_cells
    from repro.analysis.summaries import NotebookSummaries

    paths = _summaries_paths(args.paths, err)
    reports = {}
    analyzed: List[str] = []
    for path in paths:
        source = _read_script(path, err, "repro summaries")
        if source is None:
            continue
        table = NotebookSummaries.from_sources(split_script_cells(source))
        reports[path] = table.to_report()
        analyzed.append(path)
    if not analyzed:
        err.write("repro summaries: nothing analyzable\n")
        return 2

    if args.format_ == "json":
        payload = (
            reports[analyzed[0]]
            if len(analyzed) == 1
            else {path: reports[path] for path in sorted(reports)}
        )
        out.write(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        blocks = []
        for path in analyzed:
            blocks.append(f"{path}:\n{render_summaries_text(reports[path])}")
        out.write("\n\n".join(blocks) + "\n")
    return 0


def _stub_check_report(source: str, registry) -> dict:
    """Analyze one script's library calls against the stub registry."""
    from repro.analysis import split_script_cells
    from repro.analysis.flowrules import _toplevel_calls
    from repro.analysis.typetrack import StubContext, stub_call_mutates

    context = StubContext(registry=registry)
    cells = split_script_cells(source)
    stub_calls: List[dict] = []
    unknown_calls: List[dict] = []
    mismatches: List[dict] = []
    seen_modules: set = set()
    for index, cell_source in enumerate(cells):
        try:
            module = parse(cell_source)
        except SyntaxError:
            context.observe_cell(cell_source)
            continue
        resolver = context.resolver(module)
        for call in _toplevel_calls(cell_source):
            resolved = resolver.resolve_call(call)
            if resolved is not None:
                stub_calls.append(
                    {
                        "cell": index,
                        "line": call.lineno,
                        "qualname": resolved.qualname,
                        "mutates": stub_call_mutates(resolved.stub, call)
                        or bool(resolved.stub.mutates_args)
                        or bool(resolved.stub.writes_globals),
                    }
                )
                continue
            unknown = resolver.unknown_library_call(call)
            if unknown is not None:
                unknown_calls.append(
                    {
                        "cell": index,
                        "line": call.lineno,
                        "qualname": unknown.qualname,
                        "stub_file": unknown.stub_file,
                    }
                )
        for statement in ast.walk(module):
            if isinstance(statement, ast.Import):
                names = [alias.name for alias in statement.names]
            elif isinstance(statement, ast.ImportFrom):
                names = [statement.module] if statement.module else []
            else:
                continue
            for name in names:
                if name in seen_modules:
                    continue
                seen_modules.add(name)
                mismatch = registry.version_mismatch(name)
                if mismatch is not None:
                    declared, imported = mismatch
                    mismatches.append(
                        {
                            "cell": index,
                            "module": name,
                            "declared": declared,
                            "imported": imported,
                        }
                    )
        context.observe_cell(cell_source)
    return {
        "cells": len(cells),
        "stub_calls": stub_calls,
        "unknown_calls": unknown_calls,
        "version_mismatches": mismatches,
    }


def render_stub_check_text(report: dict) -> str:
    """Human-readable rendering of one script's stub-check report."""
    lines = [
        f"{report['cells']} cell(s) — {len(report['stub_calls'])} stubbed "
        f"call(s), {len(report['unknown_calls'])} unstubbed library "
        f"call(s), {len(report['version_mismatches'])} version mismatch(es)"
    ]
    for entry in report["stub_calls"]:
        kind = "mutates" if entry["mutates"] else "pure"
        lines.append(
            f"  cell {entry['cell']} line {entry['line']}: "
            f"{entry['qualname']}() [{kind}]"
        )
    for entry in report["unknown_calls"]:
        fix = (
            f"extend {entry['stub_file']}"
            if entry["stub_file"]
            else "declare it in a stub file"
        )
        lines.append(
            f"  ! cell {entry['cell']} line {entry['line']}: no stub for "
            f"{entry['qualname']}() — {fix}"
        )
    for entry in report["version_mismatches"]:
        lines.append(
            f"  ! cell {entry['cell']}: stubs for {entry['module']!r} "
            f"declare {entry['declared']} but {entry['imported']} is "
            "imported"
        )
    return "\n".join(lines)


def stubs_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro stubs`` — library effect stubs (DESIGN.md §15).

    ``repro stubs list`` prints the registry: every stubbed module, its
    pinned version (if any), entry counts, and the file it came from.
    ``repro stubs check FILE|DIR`` resolves each script's library calls
    against the registry and reports stubbed calls, unstubbed
    library-shaped calls (with the stub file to extend), and version
    mismatches. Unparseable files are skipped with a note; the exit
    code is 2 only when nothing was analyzable. ``--stub FILE`` adds
    user stub files to the shipped set.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro stubs",
        description="Inspect and apply library effect stubs.",
    )
    parser.add_argument(
        "--stub",
        metavar="FILE",
        action="append",
        default=[],
        dest="stub_files",
        help="additional stub file(s) to load on top of the shipped set",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show every module in the stub registry")
    check_parser = sub.add_parser(
        "check", help="resolve a script's library calls against the registry"
    )
    check_parser.add_argument(
        "paths",
        metavar="FILE",
        nargs="+",
        help="python files (or directories of them) to check",
    )
    args = parser.parse_args(argv)

    import json as json_module

    from repro.analysis.stubs import StubError, default_registry

    try:
        registry = default_registry(extra_files=args.stub_files)
    except (StubError, OSError) as exc:
        err.write(f"repro stubs: {exc}\n")
        return 2

    if args.command == "list":
        modules = sorted(registry.modules(), key=lambda m: m.module)
        if args.format_ == "json":
            payload = [
                {
                    "module": stubs.module,
                    "version": stubs.version,
                    "stub_format": stubs.stub_format,
                    "functions": len(stubs.functions),
                    "types": len(stubs.types),
                    "default_effect": stubs.default_effect,
                    "source": stubs.source,
                }
                for stubs in modules
            ]
            out.write(
                json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        else:
            out.write(
                f"{len(modules)} stub module(s), registry fingerprint "
                f"{registry.fingerprint()}\n"
            )
            for stubs in modules:
                version = (
                    f" =={stubs.version}" if stubs.version is not None else ""
                )
                origin = f"  [{stubs.source}]" if stubs.source else ""
                out.write(
                    f"  {stubs.module}{version}  "
                    f"({len(stubs.functions)} functions, "
                    f"{len(stubs.types)} types){origin}\n"
                )
        return 0

    paths = _summaries_paths(args.paths, err, prog="repro stubs")
    reports = {}
    analyzed: List[str] = []
    for path in paths:
        source = _read_script(path, err, "repro stubs")
        if source is None:
            continue
        reports[path] = _stub_check_report(source, registry)
        analyzed.append(path)
    if not analyzed:
        err.write("repro stubs: nothing analyzable\n")
        return 2

    if args.format_ == "json":
        payload = (
            reports[analyzed[0]]
            if len(analyzed) == 1
            else {path: reports[path] for path in sorted(reports)}
        )
        out.write(json_module.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        blocks = []
        for path in analyzed:
            blocks.append(f"{path}:\n{render_stub_check_text(reports[path])}")
        out.write("\n\n".join(blocks) + "\n")
    return 0


def plan_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro plan`` — static replay planning over a script or a store.

    File mode splits the script into notebook-style cells (``# %%``
    separators, else one cell per top-level statement), builds the
    inter-cell dataflow graph, and prints the minimal ordered cell
    subset whose re-execution reconstructs the target variables. With
    ``--store`` the plan runs over a durable session's checkpoint chain
    instead, consulting stored payloads as shortcut versions and using
    measured cell durations as costs.

    Output is deterministic: ``--format json`` is byte-stable for a
    given input (sorted keys, sorted name lists, AST-size costs).
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro plan",
        description="Static replay planning over notebook-style scripts.",
    )
    parser.add_argument(
        "path",
        metavar="FILE",
        nargs="?",
        default=None,
        help="python script to plan over (split into cells)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="plan over a durable session's checkpoint chain instead",
    )
    parser.add_argument(
        "--targets",
        metavar="NAMES",
        default=None,
        help="comma-separated variables to reconstruct (default: all live)",
    )
    parser.add_argument(
        "--at",
        metavar="REF",
        default=None,
        help="cell index (file mode) or checkpoint ref (store mode)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the plan is incomplete or replay-unsafe",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        dest="trace_out",
        help="export the planning span tree as Chrome trace-event JSON",
    )
    args = parser.parse_args(argv)
    if (args.path is None) == (args.store is None):
        err.write(
            "repro plan: exactly one of FILE or --store is required "
            "(conflicting or missing input)\n"
        )
        return 2

    from repro.analysis.dataflow import (
        NotebookDataflowGraph,
        ReplayPlanner,
        is_builtin_name,
        split_script_cells,
    )

    from repro.obs import Observer

    observer = Observer() if args.trace_out else None
    if args.store is not None:
        from repro.core.graph import CheckpointGraph
        from repro.core.replay import ReplayEngine

        store = _open_store_strict(args.store, err, prog="repro plan")
        if store is None:
            return 2
        try:
            graph = CheckpointGraph.from_store(store)
            engine = ReplayEngine(graph, observer=observer)
            node_id = args.at if args.at is not None else graph.head_id
            if node_id not in graph:
                err.write(f"repro plan: no checkpoint {node_id!r} in store\n")
                return 2
            targets = (
                [name.strip() for name in args.targets.split(",") if name.strip()]
                if args.targets
                else sorted(graph.get(node_id).state.names())
            )
            plan, _ = engine.plan_for(targets, node_id)
        finally:
            store.close()
    else:
        try:
            with open(args.path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            err.write(f"repro plan: cannot read {args.path}: {exc}\n")
            return 2
        sources = split_script_cells(source)
        dataflow = NotebookDataflowGraph.from_sources(
            sources, labels=[f"{args.path}[{i}]" for i in range(len(sources))]
        )
        at_index = int(args.at) if args.at is not None else len(sources) - 1
        targets = (
            [name.strip() for name in args.targets.split(",") if name.strip()]
            if args.targets
            else [
                name
                for name in dataflow.live_names(at_index)
                if not is_builtin_name(name)
            ]
        )
        plan = ReplayPlanner(dataflow).plan(targets, at_index)

    if args.format_ == "json":
        import json

        out.write(json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        out.write(plan.format() + "\n")
    if observer is not None:
        observer.tracer.write_chrome_trace(args.trace_out)
    if args.strict and (not plan.is_complete or not plan.is_safe):
        return 1
    return 0


def stats_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro stats`` — deterministic storage accounting over a store.

    Reads a durable checkpoint database and prints the ``store.*``
    metrics registry computed from its contents (node count, payload
    byte histogram, tombstones, version-reuse dedup hits, and the
    incremental-vs-monolithic size comparison). Output is byte-stable
    for a given store — it is golden-tested — because the registry only
    holds quantities that are a pure function of what was written, never
    wall-clock measurements (DESIGN.md §11).
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Deterministic checkpoint-store metrics.",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        required=True,
        help="durable SQLite checkpoint database to account",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_"
    )
    args = parser.parse_args(argv)

    from repro.obs.report import (
        per_session_stats,
        registry_from_store,
        render_store_stats,
        stats_as_dict,
    )

    store = _open_store_strict(args.store, err, prog="repro stats")
    if store is None:
        return 2
    try:
        registry = registry_from_store(store)
        breakdown = per_session_stats(store)
        own_session = getattr(store, "session_id", None)
    finally:
        store.close()
    # The per-session section only appears on genuinely multi-session
    # stores — a single-session store renders exactly as before (the
    # golden-tested single-session output stays byte-identical).
    multi_session = any(sid != own_session for sid in breakdown)
    if args.format_ == "json":
        import json

        payload = stats_as_dict(registry)
        if multi_session:
            payload["store.sessions"] = breakdown
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        text = render_store_stats(registry)
        if multi_session:
            lines = [text, "per-session:"]
            for sid, row in breakdown.items():
                lines.append(
                    f"  {sid}  commits={row['commits']} "
                    f"payloads={row['payloads_stored']} "
                    f"tombstones={row['tombstones']} "
                    f"bytes={row['bytes_total']}"
                )
            text = "\n".join(lines)
        out.write(text + "\n")
    return 0


def fuzz_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro fuzz`` — adversarial fuzzing and concurrent soak runs.

    Default mode generates ``--iterations`` seeded programs (seeds
    ``--seed .. --seed+N-1``) from the chosen grammar profile and runs
    each through the checkout-equals-reexecution differential oracle.
    Stdout is deterministic for a given (seed, cells, profile,
    iterations): per-iteration verdict lines plus a summary, with no
    wall-clock content — ``repro fuzz --seed S`` is byte-reproducible
    across processes. Exit 0 when clean, 1 when any divergence was
    found, 2 on usage errors.

    ``--minimize`` shrinks every failing program with ddmin and writes a
    ready-to-commit pinned-seed pytest file per failure into
    ``--emit-dir`` (default ``tests/regressions``).

    ``--soak N`` switches to the concurrent soak driver: N seeded
    sessions in parallel threads against independent stores with fault
    plans active; the aggregate latency/growth report is written as JSON
    to ``--out`` (stdout with ``--format json`` otherwise).
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    from repro.fuzz import PROFILES

    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Adversarial fuzzing against the checkout-equals-"
        "reexecution oracle, and concurrent-session soak runs.",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument(
        "--iterations", type=int, default=1, help="consecutive seeds to run"
    )
    parser.add_argument(
        "--cells", type=int, default=20, help="cells per generated program"
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="default",
        help="grammar weight profile",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="time_budget",
        help="stop starting new iterations after this many seconds",
    )
    parser.add_argument(
        "--minimize",
        action="store_true",
        help="ddmin-shrink failing programs and emit pinned regression tests",
    )
    parser.add_argument(
        "--emit-dir",
        default="tests/regressions",
        dest="emit_dir",
        metavar="DIR",
        help="directory for emitted regression tests (with --minimize)",
    )
    parser.add_argument(
        "--print-program",
        action="store_true",
        dest="print_program",
        help="print each generated program's cell text",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_"
    )
    parser.add_argument(
        "--soak",
        type=int,
        default=None,
        metavar="N",
        help="run the concurrent soak driver with N sessions instead",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the soak report JSON here (soak mode)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        dest="store_dir",
        metavar="DIR",
        help="keep per-session soak stores here instead of a temp dir",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="soak the fleet through one shared store behind the "
        "session manager's write-ahead commit queue (soak mode)",
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        dest="no_faults",
        help="disable fault injection (soak mode; a healthy baseline "
        "run for SLO gating)",
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help="SLO spec to judge the soak against (default: shipped "
        "fleet spec; soak mode)",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        dest="events_out",
        metavar="FILE",
        help="write the service soak's event log as JSONL here "
        "(replayable by `repro health --events`)",
    )
    args = parser.parse_args(argv)
    if args.soak is not None and args.minimize:
        err.write(
            "repro fuzz: --soak and --minimize are mutually exclusive "
            "(the soak driver has no single failing program to shrink)\n"
        )
        return 2
    if args.iterations < 1:
        err.write("repro fuzz: --iterations must be >= 1\n")
        return 2

    if args.soak is not None:
        import json

        from repro.fuzz import FuzzConfig, SoakConfig, run_soak

        try:
            soak_config = SoakConfig(
                sessions=args.soak,
                cells=args.cells,
                seed=args.seed,
                store_dir=args.store_dir,
                service=args.service,
                faults=not args.no_faults,
                slo=args.slo,
                events_out=args.events_out,
                grammar=FuzzConfig(cells=1, **PROFILES[args.profile]),
            )
        except ValueError as exc:
            err.write(f"repro fuzz: {exc}\n")
            return 2
        from repro.obs.health import SLOError

        try:
            result = run_soak(soak_config)
        except (SLOError, OSError) as exc:
            err.write(f"repro fuzz: {exc}\n")
            return 2
        rendered = json.dumps(result, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        if args.format_ == "json" and not args.out:
            out.write(rendered + "\n")
        else:
            commit = result["commit_latency"]
            checkout = result["checkout_latency"]
            faults_fired = result["faults"]["fired"]
            if "service" in result:
                # Service mode counts faults at the shared store, not
                # per worker.
                faults_fired = result["service"]["faults_fired"]
            out.write(
                f"soak: {result['sessions']} session(s), "
                f"{result['commits']} commit(s), "
                f"commit p50/p95/p99 {commit['p50_ms']}/{commit['p95_ms']}/"
                f"{commit['p99_ms']} ms, "
                f"checkout p50/p95/p99 {checkout['p50_ms']}/{checkout['p95_ms']}/"
                f"{checkout['p99_ms']} ms, "
                f"{result['store_growth']['total_file_bytes']} store byte(s), "
                f"{faults_fired} fault(s), "
                f"{result['oracle']['failures']}/{result['oracle']['checks']} "
                f"oracle failure(s)\n"
            )
            if "health" in result:
                firing = result["health"]["firing"]
                out.write(
                    "soak: slo "
                    + (
                        f"FIRING: {', '.join(firing)}"
                        if firing
                        else f"ok ({result['health']['spec']})"
                    )
                    + "\n"
                )
            if args.out:
                out.write(f"soak: report written to {args.out}\n")
        failed = (
            result["oracle"]["failures"] > 0
            or result["worker_errors"]
        )
        return 1 if failed else 0

    import time as _time

    from repro.fuzz import (
        ProgramGenerator,
        profile as make_profile,
        run_program_oracle,
        shrink_program,
        emit_regression_test,
    )

    try:
        config = make_profile(args.profile, cells=args.cells)
    except ValueError as exc:
        err.write(f"repro fuzz: {exc}\n")
        return 2
    generator = ProgramGenerator(config)
    started = _time.monotonic()
    records = []
    ran = 0
    for seed in range(args.seed, args.seed + args.iterations):
        if (
            args.time_budget is not None
            and ran > 0
            and _time.monotonic() - started >= args.time_budget
        ):
            err.write(
                f"repro fuzz: time budget exhausted after {ran} iteration(s)\n"
            )
            break
        program = generator.generate(seed)
        report = run_program_oracle(program)
        ran += 1
        records.append((program, report))
        if args.format_ == "text":
            if args.print_program:
                out.write(f"# seed {seed}\n{program.text}\n# ===\n")
            verdict = "ok" if report.ok else (
                "DIVERGED: " + "; ".join(d.describe() for d in report.divergences)
            )
            out.write(
                f"seed {seed} cells {len(program.cells)} "
                f"fingerprint {program.fingerprint()[:12]} {verdict}\n"
            )

    failures = [(p, r) for p, r in records if not r.ok]
    emitted = []
    if args.minimize and failures:
        for program, report in failures:
            kinds = sorted({d.kind for d in report.divergences})
            minimized = shrink_program(program, kind=kinds[0] if kinds else None)
            path = os.path.join(
                args.emit_dir, f"test_fuzz_seed_{program.seed}.py"
            )
            emit_regression_test(
                minimized,
                seed=program.seed,
                path=path,
                original_cells=len(program.cells),
                config=program.config,
                origin=f"repro fuzz --profile {args.profile}",
                profile=args.profile,
                branch_cells=program.branch_cells,
            )
            emitted.append(path)
            out.write(
                f"minimized seed {program.seed}: {len(program.cells)} -> "
                f"{len(minimized)} cell(s), pinned at {path}\n"
            )

    if args.format_ == "json":
        import json

        payload = {
            "profile": args.profile,
            "cells": args.cells,
            "first_seed": args.seed,
            "iterations_requested": args.iterations,
            "iterations_run": ran,
            "divergence_count": sum(len(r.divergences) for _, r in records),
            "results": [
                {
                    "seed": p.seed,
                    "fingerprint": p.fingerprint(),
                    "ok": r.ok,
                    "divergences": [d.describe() for d in r.divergences],
                }
                for p, r in records
            ],
            "regressions_emitted": emitted,
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(
            f"fuzz: {ran} iteration(s), {len(failures)} failing program(s), "
            f"{sum(len(r.divergences) for _, r in records)} divergence(s)\n"
        )
    return 1 if failures else 0


def sessions_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro sessions`` — inspect and reattach to a multi-session store.

    One durable database can hold many sessions (DESIGN.md §13), each a
    row in the ``sessions`` registry with its own checkpoint namespace.
    ``list`` shows the registry (``--status`` filters, ``--json`` for
    machines); ``resume`` reattaches a REPL to one session's history —
    the blind reconnect: Friday's state, Monday's terminal; ``rename``
    migrates a session to a new notebook path without touching history.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro sessions",
        description="Multi-session checkpoint store registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="show the session registry")
    list_parser.add_argument(
        "--store", metavar="PATH", required=True,
        help="durable SQLite checkpoint database",
    )
    list_parser.add_argument(
        "--status", choices=("active", "detached"), default=None,
        help="only sessions in this registry state",
    )
    list_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    resume_parser = sub.add_parser(
        "resume", help="reattach a REPL to one session's history"
    )
    resume_parser.add_argument(
        "--store", metavar="PATH", required=True,
        help="durable SQLite checkpoint database",
    )
    resume_parser.add_argument("session_id", help="session to resume")

    rename_parser = sub.add_parser(
        "rename", help="migrate a session to a new notebook path"
    )
    rename_parser.add_argument(
        "--store", metavar="PATH", required=True,
        help="durable SQLite checkpoint database",
    )
    rename_parser.add_argument("session_id", help="session to rename")
    rename_parser.add_argument("notebook_path", help="new notebook path")

    args = parser.parse_args(argv)

    store = _open_store_strict(args.store, err, prog="repro sessions")
    if store is None:
        return 2

    if args.command == "list":
        try:
            records = store.list_sessions()
        finally:
            store.close()
        # Opening a store handle registers its own session; hide that
        # freshly minted empty row so a read-only listing shows only
        # sessions that actually hold history or were named on purpose.
        records = [
            r
            for r in records
            if not (
                r.session_id == store.session_id
                and r.checkpoints == 0
                and r.notebook_path is None
            )
        ]
        if args.status is not None:
            records = [r for r in records if r.status == args.status]
        if args.json:
            import json

            out.write(
                json.dumps(
                    [
                        {
                            "session_id": r.session_id,
                            "notebook_path": r.notebook_path,
                            "status": r.status,
                            "checkpoints": r.checkpoints,
                        }
                        for r in records
                    ],
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        elif not records:
            out.write("no sessions\n")
        else:
            for r in records:
                path = r.notebook_path if r.notebook_path else "-"
                out.write(
                    f"{r.session_id}  {r.status:<8}  "
                    f"{r.checkpoints} checkpoint(s)  {path}\n"
                )
        return 0

    if args.command == "rename":
        try:
            if not store.has_session(args.session_id):
                err.write(
                    f"repro sessions: unknown session: {args.session_id}\n"
                )
                return 2
            store.rename_session(args.session_id, args.notebook_path)
        finally:
            store.close()
        out.write(f"renamed {args.session_id} -> {args.notebook_path}\n")
        return 0

    # resume: bind a REPL to the session's namespaced view. The view
    # shares the root handle's backend, so closing the root closes both.
    if not store.has_session(args.session_id):
        known = ", ".join(r.session_id for r in store.list_sessions()) or "none"
        err.write(
            f"repro sessions: unknown session: {args.session_id} "
            f"(known: {known})\n"
        )
        store.close()
        return 2
    view = store.for_session(args.session_id)
    try:
        repl = KishuRepl(stdout=out, store=view)
        store.set_session_status(args.session_id, "active")
        try:
            repl.run()
        finally:
            store.set_session_status(args.session_id, "detached")
    finally:
        store.close()
    return 0


def health_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro health`` — judge a fleet against a declarative SLO spec.

    Two evidence sources, combinable: ``--store`` accounts the durable
    multi-session store (totals plus per-session breakdown), and
    ``--events`` replays an exported service event log through the
    multi-window burn-rate evaluator — each event's ``seq`` is the
    logical clock, so the alert sequence is a pure function of (event
    stream, SLO spec) and therefore byte-stable (DESIGN.md §16).

    ``--strict`` is the CI gate: exit 1 if any alert *fired* at any
    point of the replay (a later resolve does not un-ring the bell),
    0 on a clean run, 2 on usage errors. ``--format prom`` renders the
    store registry in Prometheus text exposition format for scrapers.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro health",
        description="Fleet SLO evaluation over a store and/or event log.",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="durable SQLite checkpoint database to account",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="service event log (JSONL, from `repro fuzz --soak --service "
        "--events-out`) to replay through the burn-rate evaluator",
    )
    parser.add_argument(
        "--slo",
        metavar="FILE",
        default=None,
        help="SLO spec (JSON/TOML; default: the shipped fleet spec)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        dest="format_",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any alert fired (CI gate)",
    )
    args = parser.parse_args(argv)
    if args.store is None and args.events is None:
        err.write("repro health: need --store and/or --events\n")
        return 2

    from repro.obs.health import SLOError, SLOSpec, default_spec, replay_events

    try:
        spec = (
            SLOSpec.from_file(args.slo) if args.slo is not None else default_spec()
        )
    except (SLOError, OSError) as exc:
        err.write(f"repro health: {exc}\n")
        return 2

    report: Dict[str, object] = {
        "spec": spec.name,
        "fingerprint": spec.fingerprint(),
        "slo_source": spec.source,
    }

    registry = None
    if args.store is not None:
        from repro.obs.report import (
            per_session_stats,
            registry_from_store,
            stats_as_dict,
        )

        store = _open_store_strict(args.store, err, prog="repro health")
        if store is None:
            return 2
        try:
            registry = registry_from_store(store)
            breakdown = per_session_stats(store)
        finally:
            store.close()
        report["store"] = stats_as_dict(registry)
        report["store_sessions"] = breakdown

    fired_count = 0
    if args.events is not None:
        from repro.obs import EventLog

        try:
            records = EventLog.read_jsonl(args.events)
        except OSError as exc:
            err.write(f"repro health: {exc}\n")
            return 2
        replay = replay_events(spec, records)
        report["replay"] = replay
        fired_count = sum(
            1 for alert in replay["alerts"] if alert["type"] == "slo_alert_fired"
        )
    report["alerts_fired"] = fired_count
    report["ok"] = fired_count == 0

    if args.format_ == "prom":
        if registry is None:
            err.write("repro health: --format prom needs --store\n")
            return 2
        from repro.obs.promexport import render_prometheus

        out.write(render_prometheus(registry))
    elif args.format_ == "json":
        import json

        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        out.write(f"health: spec {spec.name} ({report['fingerprint']})\n")
        if "store" in report:
            store_stats = report["store"]
            out.write(
                f"store: {store_stats['store.nodes']} commit(s), "
                f"{store_stats['store.bytes_total']} byte(s), "
                f"{len(report['store_sessions'])} session(s) with history\n"  # type: ignore[arg-type]
            )
        if "replay" in report:
            replay = report["replay"]  # type: ignore[assignment]
            out.write(
                f"events: {replay['events']} replayed, "  # type: ignore[index]
                f"{fired_count} alert(s) fired\n"
            )
            for alert in replay["alerts"]:  # type: ignore[index]
                verb = (
                    "FIRED"
                    if alert["type"] == "slo_alert_fired"
                    else "resolved"
                )
                out.write(
                    f"  [t={alert['at']:g}] {verb} {alert['slo']} "
                    f"({alert['severity']}): {alert['reason']}\n"
                )
            firing_now = replay["firing"]  # type: ignore[index]
            if firing_now:
                out.write(f"still firing: {', '.join(firing_now)}\n")
        out.write("health: " + ("OK" if report["ok"] else "ALERTS FIRED") + "\n")
    if args.strict and not report["ok"]:
        return 1
    return 0


def top_main(
    argv: List[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """``repro top`` — a live terminal view over a running service store.

    Polls the store read-only through
    :func:`~repro.core.storage.read_store_usage` (never taking the
    cross-process write lock, so it works *while* the service is writing)
    and renders one frame per ``--interval`` seconds: per-session commit
    counts, physical payload bytes, tombstones, and registry status.
    ``--iterations N`` renders N frames and exits (the scriptable/CI
    form); without it, runs until interrupted.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live per-session view over a (running) service store.",
    )
    parser.add_argument(
        "--store", metavar="PATH", required=True,
        help="durable SQLite checkpoint database (may be in active use)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames (default 2)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="render N frames then exit (default: until interrupted)",
    )
    args = parser.parse_args(argv)
    if not os.path.exists(args.store):
        err.write(f"repro top: no such store: {args.store}\n")
        return 2
    if args.interval <= 0:
        err.write("repro top: --interval must be > 0\n")
        return 2

    import sqlite3
    import time as _time

    frame = 0
    try:
        while args.iterations is None or frame < args.iterations:
            if frame:
                _time.sleep(args.interval)
            frame += 1
            try:
                rows, total_bytes = read_store_usage(args.store)
            except sqlite3.Error as exc:
                err.write(f"repro top: {exc}\n")
                return 2
            if out.isatty():  # pragma: no cover - interactive only
                out.write("\x1b[2J\x1b[H")
            out.write(
                f"repro top — {args.store}  frame {frame}  "
                f"{sum(row.commits for row in rows)} commit(s)  "
                f"{total_bytes} payload byte(s)\n"
            )
            out.write(
                f"{'SESSION':<12} {'STATUS':<9} {'COMMITS':>7} "
                f"{'BYTES':>12} {'TOMBS':>5}  NOTEBOOK\n"
            )
            for row in rows:
                notebook = row.notebook_path or "-"
                out.write(
                    f"{row.session_id:<12} {row.status:<9} "
                    f"{row.commits:>7} {row.payload_bytes:>12} "
                    f"{row.tombstones:>5}  {notebook}\n"
                )
            out.flush()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        out.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> Optional[int]:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        return lint_main(arguments[1:])
    if arguments and arguments[0] == "summaries":
        return summaries_main(arguments[1:])
    if arguments and arguments[0] == "stubs":
        return stubs_main(arguments[1:])
    if arguments and arguments[0] == "plan":
        return plan_main(arguments[1:])
    if arguments and arguments[0] == "stats":
        return stats_main(arguments[1:])
    if arguments and arguments[0] == "fuzz":
        return fuzz_main(arguments[1:])
    if arguments and arguments[0] == "sessions":
        return sessions_main(arguments[1:])
    if arguments and arguments[0] == "health":
        return health_main(arguments[1:])
    if arguments and arguments[0] == "top":
        return top_main(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Interactive Kishu notebook session.",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="durable SQLite checkpoint database (resumed if it has history)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        dest="trace_out",
        help="on exit, export the session's lifecycle spans as Chrome "
        "trace-event JSON",
    )
    args = parser.parse_args(arguments)
    try:
        store = SQLiteCheckpointStore(args.store) if args.store else None
    except StoreBusyError as exc:
        sys.stderr.write(f"python -m repro.cli: {exc}\n")
        return 2
    repl = None
    try:
        repl = KishuRepl(store=store)
        repl.run()
    finally:
        if (
            args.trace_out
            and repl is not None
            and repl.session.observer.enabled
        ):
            repl.session.observer.tracer.write_chrome_trace(args.trace_out)
        if store is not None:
            store.close()
    return None


if __name__ == "__main__":
    sys.exit(main() or 0)

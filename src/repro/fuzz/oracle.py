"""Differential oracle: checkout must equal a cold re-execution.

The Kishu guarantee under test (§5.3 of the paper): checking out any
commit reproduces exactly the state a cold re-execution of that commit's
cell history would produce — values, dict order, element types, *and*
the sharing structure of mutable objects.

The oracle runs one generated program three ways and cross-checks:

1. **Tracked run** — through a :class:`KishuSession` with auto
   checkpointing, recording the canonical state after every commit
   (the *ground truth* of what the session actually saw);
2. **Cold run** — the same cells in a fresh kernel with no session
   attached, recording the canonical state after every cell (what
   re-execution from scratch produces);
3. **Checkouts** — every commit is checked out (in a seed-shuffled
   order, so the incremental walks of §5.2 cross history arbitrarily)
   and the restored canonical state is compared against the cold run's
   state at that point.

Branch rounds then check out a random commit, run a new cell on it and
compare the live state with a cold replay of its path; after the rounds
every branched commit is checked out again, from the root, and compared
with the state recorded at its commit, which catches a delta that a cell
after a checkout stored wrongly.

Divergence anywhere is collected, never raised — the fuzzer's driver
decides whether to shrink, report, or fail. On top of state equality the
oracle cross-checks the PR 5 telemetry invariants: every cross-validator
escalation must carry reasons, every replay-planner decline must carry a
reason, and replayed cells must report zero Lemma-1 validation
mismatches.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.graph import ROOT_ID
from repro.core.session import KishuSession
from repro.frame import DataFrame, Series
from repro.kernel.kernel import NotebookKernel
from repro.obs import EventType

from repro.fuzz.grammar import FuzzConfig, FuzzProgram, ProgramGenerator

__all__ = [
    "Divergence",
    "OracleReport",
    "canonical_state",
    "run_cells_oracle",
    "run_program_oracle",
    "run_fuzz_iteration",
]

#: CPython reprs of address-identified objects (functions, generators,
#: object()) embed ``0x7f..``; restoration legitimately changes the
#: address, so canonicalization masks it.
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _masked_repr(obj: Any) -> str:
    try:
        text = repr(obj)
    except Exception as exc:  # a repr that raises is itself state
        text = f"<unreprable {type(obj).__qualname__}: {type(exc).__name__}>"
    return _ADDRESS.sub("0xX", text)


def canonical_state(kernel: NotebookKernel) -> bytes:
    """Order-normalized encoding of the full user state.

    Captures every value (including dict insertion order and element
    types) and the *sharing structure of mutable objects*: shared
    mutables (lists, dicts, sets, numpy arrays, sim objects) are
    labelled by first visit, so ``a is b`` differences surface even when
    ``a == b``. Incidental identity of immutables (CPython string/int
    interning) and memory addresses inside reprs are deliberately
    ignored: restoration cannot and need not preserve them — which is
    why the encoding is ``repr`` of the canonical tuple, not a pickle:
    the pickle memo keys on object identity and would leak interning
    differences into the bytes.
    """
    items = kernel.user_variables()
    labels: Dict[int, int] = {}

    def walk(obj: Any) -> Any:
        if isinstance(obj, (list, dict, set, np.ndarray)) or _is_sim(obj):
            if id(obj) in labels:
                return ("ref", labels[id(obj)])
            labels[id(obj)] = len(labels)
            label = labels[id(obj)]
            if isinstance(obj, list):
                return ("list", label, tuple(walk(v) for v in obj))
            if isinstance(obj, set):
                return ("set", label, tuple(sorted(_masked_repr(v) for v in obj)))
            if isinstance(obj, dict):
                # repr() the keys: raw key strings would leak CPython
                # interning identity into the pickle memo and reintroduce
                # the immutable-sharing false positive.
                return (
                    "dict",
                    label,
                    tuple((repr(k), walk(v)) for k, v in obj.items()),
                )
            if isinstance(obj, np.ndarray):
                return (
                    "ndarray",
                    label,
                    obj.shape,
                    obj.dtype.str,
                    hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
                )
            # Sim object: canonicalize its equality-relevant state, in
            # sorted attribute order (its __repr__ hides all state).
            state = obj._state_for_eq()
            return (
                "sim",
                type(obj).__qualname__,
                label,
                tuple((name, walk(state[name])) for name in sorted(state)),
            )
        if isinstance(obj, tuple):
            # Immutable shell, possibly wrapping mutables: walk through.
            return ("tuple", tuple(walk(v) for v in obj))
        if isinstance(obj, Series):
            return ("series", obj.name, walk(obj.values))
        if isinstance(obj, DataFrame):
            return (
                "frame",
                tuple((name, walk(obj.column_array(name))) for name in obj.columns),
            )
        return ("val", type(obj).__qualname__, _masked_repr(obj))

    canonical = tuple((name, walk(items[name])) for name in sorted(items))
    return repr(canonical).encode("utf-8")


def _is_sim(obj: Any) -> bool:
    from repro.libsim.base import SimObject

    return isinstance(obj, SimObject)


@dataclass(frozen=True)
class Divergence:
    """One oracle violation, with enough context to reproduce it."""

    kind: str  # "checkout", "nondeterminism", "telemetry", "branch"
    node_id: str
    cell_index: int
    detail: str
    seed: Optional[int] = None

    def describe(self) -> str:
        where = f"node {self.node_id} (cell {self.cell_index})"
        tag = f" seed={self.seed}" if self.seed is not None else ""
        return f"[{self.kind}]{tag} {where}: {self.detail}"


@dataclass
class OracleReport:
    """Outcome of one differential-oracle run."""

    seed: Optional[int]
    n_cells: int
    commits_checked: int = 0
    checkouts: int = 0
    branch_rounds: int = 0
    branch_rechecks: int = 0
    escalations: int = 0
    declines: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return (
                f"ok: {self.commits_checked} commits, {self.checkouts} "
                f"checkouts, {self.branch_rounds} branch rounds "
                f"({self.branch_rechecks} rechecked), "
                f"{self.escalations} escalation(s), {self.declines} decline(s)"
            )
        lines = [f"{len(self.divergences)} divergence(s):"]
        lines.extend("  " + d.describe() for d in self.divergences)
        return "\n".join(lines)


def run_cells_oracle(
    cells: List[str],
    *,
    seed: int = 0,
    branch_cells: Tuple[str, ...] = (),
    session_kwargs: Optional[Dict[str, Any]] = None,
    max_divergences: int = 10,
) -> OracleReport:
    """Run the differential oracle over an explicit cell list.

    This is the entry point pinned regression tests call: the program is
    the cells themselves, ``seed`` only drives the checkout order
    shuffle. Execution errors inside cells are tolerated (both the
    tracked and the cold run see the identical error), so shrunken
    programs with dangling references remain comparable.
    """
    report = OracleReport(seed=seed, n_cells=len(cells))
    rng = random.Random(seed)

    # 1. Tracked run: one commit per cell, ground truth after each.
    kernel = NotebookKernel()
    session = KishuSession.init(kernel, **(session_kwargs or {}))
    node_of_cell: List[Tuple[str, int]] = []  # (node_id, cell_index)
    truth: Dict[str, bytes] = {}
    for index, cell in enumerate(cells):
        kernel.run_cell(cell, raise_on_error=False)
        node_id = session.head_id
        node_of_cell.append((node_id, index))
        truth[node_id] = canonical_state(kernel)

    # 2. Cold run: same cells, fresh kernel, no session attached.
    cold_kernel = NotebookKernel()
    cold: Dict[str, bytes] = {}
    for (node_id, index), cell in zip(node_of_cell, cells):
        cold_kernel.run_cell(cell, raise_on_error=False)
        cold[node_id] = canonical_state(cold_kernel)
        if cold[node_id] != truth[node_id] and len(report.divergences) < max_divergences:
            report.divergences.append(
                Divergence(
                    kind="nondeterminism",
                    node_id=node_id,
                    cell_index=index,
                    detail="tracked and cold executions of the same prefix "
                    "disagree — the program (or tracking itself) perturbs "
                    "execution",
                    seed=seed,
                )
            )

    # 3. Check out every commit in a shuffled order; each restored state
    #    must equal the cold re-execution of that commit's prefix.
    order = list(node_of_cell)
    rng.shuffle(order)
    for node_id, index in order:
        report.checkouts += 1
        try:
            session.checkout(node_id)
        except Exception as exc:
            report.divergences.append(
                Divergence(
                    kind="checkout",
                    node_id=node_id,
                    cell_index=index,
                    detail=f"checkout raised {type(exc).__name__}: {exc}",
                    seed=seed,
                )
            )
            continue
        restored = canonical_state(kernel)
        report.commits_checked += 1
        if restored != cold[node_id] and len(report.divergences) < max_divergences:
            report.divergences.append(
                Divergence(
                    kind="checkout",
                    node_id=node_id,
                    cell_index=index,
                    detail="restored state differs from cold re-execution "
                    "of the same prefix",
                    seed=seed,
                )
            )

    # 4. Branch rounds: check out mid-history, continue with new cells,
    #    and verify the branched commit against a cold replay of its
    #    root-to-node path.
    branched: List[Tuple[str, int, bytes]] = []  # (node, cell index, state)
    for branch_cell in branch_cells:
        target_id, target_index = rng.choice(node_of_cell)
        try:
            session.checkout(target_id)
        except Exception as exc:
            report.divergences.append(
                Divergence(
                    kind="branch",
                    node_id=target_id,
                    cell_index=target_index,
                    detail=f"branch checkout raised {type(exc).__name__}: {exc}",
                    seed=seed,
                )
            )
            continue
        kernel.run_cell(branch_cell, raise_on_error=False)
        new_id = session.head_id
        report.branch_rounds += 1
        committed = canonical_state(kernel)
        branched.append((new_id, target_index, committed))
        path_sources = _path_sources(session, new_id)
        branch_kernel = NotebookKernel()
        for source in path_sources:
            branch_kernel.run_cell(source, raise_on_error=False)
        if committed != canonical_state(branch_kernel):
            if len(report.divergences) < max_divergences:
                report.divergences.append(
                    Divergence(
                        kind="branch",
                        node_id=new_id,
                        cell_index=target_index,
                        detail="state after checkout-and-continue differs "
                        "from cold replay of the branch's cell path",
                        seed=seed,
                    )
                )

    # 5. Check out every branched commit again, from the empty root state
    #    and in creation order (no rng draw, so seeds keep their
    #    schedules): the restored state must be the one its cell left, so
    #    every co-variable that cell changed after its checkout must have
    #    reached the store.
    for node_id, index, committed in branched:
        report.branch_rechecks += 1
        try:
            session.checkout(ROOT_ID)
            session.checkout(node_id)
        except Exception as exc:
            detail = f"branch recheck raised {type(exc).__name__}: {exc}"
        else:
            if canonical_state(kernel) == committed:
                continue
            detail = (
                "re-checked-out branch commit differs from the state "
                "recorded at its commit"
            )
        if len(report.divergences) < max_divergences:
            report.divergences.append(
                Divergence(
                    kind="branch",
                    node_id=node_id,
                    cell_index=index,
                    detail=detail,
                    seed=seed,
                )
            )

    _check_telemetry(session, report, seed)
    return report


def _path_sources(session: KishuSession, node_id: str) -> List[str]:
    """Cell sources along the graph path root → ``node_id``."""
    sources: List[str] = []
    current = node_id
    while current != ROOT_ID:
        node = session.graph.get(current)
        sources.append(node.cell_source)
        if node.parent_id is None:
            break
        current = node.parent_id
    sources.reverse()
    return sources


def _check_telemetry(
    session: KishuSession, report: OracleReport, seed: Optional[int]
) -> None:
    """PR 5 invariants: every decision must carry its reason."""
    observer = session.observer
    if not observer.enabled:
        return
    for event in observer.events.of_type(EventType.CROSSVAL_ESCALATION):
        report.escalations += 1
        if not event.fields.get("reasons"):
            report.divergences.append(
                Divergence(
                    kind="telemetry",
                    node_id="-",
                    cell_index=int(event.fields.get("execution_count", -1)),
                    detail="cross-validator escalation without reasons "
                    f"(event #{event.seq})",
                    seed=seed,
                )
            )
    for event in observer.events.of_type(EventType.REPLAY_PLAN_DECLINED):
        report.declines += 1
        if not event.fields.get("reason"):
            report.divergences.append(
                Divergence(
                    kind="telemetry",
                    node_id=str(event.fields.get("node", "-")),
                    cell_index=-1,
                    detail=f"replay-plan decline without a reason (event #{event.seq})",
                    seed=seed,
                )
            )
    mismatches = session.plan_stats.validation_mismatches
    if mismatches:
        report.divergences.append(
            Divergence(
                kind="telemetry",
                node_id="-",
                cell_index=-1,
                detail=f"replay executed with {mismatches} Lemma-1 validation "
                "mismatch(es)",
                seed=seed,
            )
        )


def run_program_oracle(
    program: FuzzProgram, **kwargs: Any
) -> OracleReport:
    """Run the differential oracle over a generated program."""
    return run_cells_oracle(
        list(program.cells),
        seed=program.seed,
        branch_cells=program.branch_cells,
        **kwargs,
    )


def run_fuzz_iteration(
    seed: int, config: Optional[FuzzConfig] = None, **kwargs: Any
) -> Tuple[FuzzProgram, OracleReport]:
    """Generate the program for ``seed`` and run the oracle on it."""
    generator = ProgramGenerator(config)
    program = generator.generate(seed)
    return program, run_program_oracle(program, **kwargs)

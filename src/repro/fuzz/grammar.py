"""Seeded cell-program generator: the adversarial workload grammar.

The fuzzer's programs are composed from a *weighted grammar* of the hard
constructs the analysis stack claims to handle (DESIGN.md §12):

* **create** — scalars, strings, lists, nested dicts, int sets, tuples
  wrapping mutables (the co-variable building blocks);
* **mutate** — in-place mutation of a live structure, type-dispatched
  inside the cell so any target is valid (list append/extend/reverse/
  sort, dict insert, nested append, set add);
* **alias** — aliasing chains (``b = a``) and bundles (``c = [a, b]``,
  ``d = {'ref': a}``) that merge co-variables;
* **del_rebind** — ``del x`` with the name parked for later rebinding
  by a creator cell (the delete-kill / write-revival axis of the
  dataflow graph);
* **conditional** — writes guarded by runtime-deterministic but
  statically-conditional predicates (the DEFINITE vs CONDITIONAL
  strength lattice);
* **closure** — function definitions capturing live names by reference,
  immediately called (by-value fallback serialization, replay through
  lazy function bodies);
* **generator** — generator expressions (unserializable: forces the
  tombstone / fallback-recomputation path) and a separate *consume*
  construct that drains a live generator cells later (the §5.3 lazy
  generator hazard);
* **escape** — ``globals()['..'] = ..`` and ``exec(..)`` writes that
  defeat access tracking and must escalate detection (DESIGN.md §8);
* **libsim** — simulated library handles (:mod:`repro.libsim`) with
  realistic pickle personalities, created and transformed via methods;
* **helper** — cross-cell helper functions (DESIGN.md §14): defs that
  write globals from inside the body (hidden stores the summary layer
  defers to call sites), mutate parameters, or return argument aliases;
  calls cells later (including as ``sorted`` key callbacks); and
  rebind-after-call, which invalidates the summary;
* **hazard** — cells whose outcome or reach the analysis must not
  guess: a cell that raises before a ``def`` that would make a live
  global-storing helper pure, a cell that rebinds a live name and then
  raises, and calls of a global-storing function through a list element,
  a ``SimpleNamespace`` attribute or a method of a notebook class (which
  is unpicklable, so checkout replays it), none of which a call-site
  analysis resolves. An opt-in family (:data:`OPT_IN_CONSTRUCTS`): only
  the ``hazard-heavy`` profile weighs it, so every other profile's
  programs are unchanged.

Everything is derived from ``random.Random(seed)`` plus an immutable
:class:`FuzzConfig`; no dict/set iteration order, wall clock, or
``hash()`` feeds any decision, so ``(seed, config)`` fully determines
the program text in any process under any ``PYTHONHASHSEED`` — the same
reproducibility contract as the workload fingerprints of DESIGN.md §7.
"""

from __future__ import annotations

import hashlib
import random
import textwrap
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CONSTRUCTS",
    "OPT_IN_CONSTRUCTS",
    "FuzzConfig",
    "FuzzProgram",
    "ProgramGenerator",
    "PROFILES",
    "profile",
]

#: Construct families, in the fixed order weights are consumed. Order is
#: part of the reproducibility contract — never reorder entries.
CONSTRUCTS = (
    "create",
    "mutate",
    "alias",
    "del_rebind",
    "conditional",
    "closure",
    "generator",
    "consume",
    "escape",
    "libsim",
    "helper",
)

#: Families outside the default grammar, weighed after :data:`CONSTRUCTS`
#: and only when a profile gives them a weight: a program of a profile
#: that leaves them at 0 is the one it was before they existed.
OPT_IN_CONSTRUCTS = ("hazard",)


@dataclass(frozen=True)
class FuzzConfig:
    """Immutable generator configuration; part of every program's identity.

    ``w_*`` are relative (not normalized) weights of the construct
    families. A weight of 0 removes the family from the grammar.
    """

    cells: int = 20
    #: Extra cells pre-generated for checkout-and-continue rounds.
    branch_cells: int = 6
    max_live: int = 24

    w_create: float = 10.0
    w_mutate: float = 10.0
    w_alias: float = 7.0
    w_del_rebind: float = 4.0
    w_conditional: float = 5.0
    w_closure: float = 4.0
    w_generator: float = 3.0
    w_consume: float = 3.0
    w_escape: float = 3.0
    w_libsim: float = 3.0
    w_helper: float = 4.0
    w_hazard: float = 0.0

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.branch_cells < 0:
            raise ValueError("branch_cells must be >= 0")
        if self.max_live < 2:
            raise ValueError("max_live must be >= 2")
        for name, weight in self.weights():
            if weight < 0:
                raise ValueError(f"{name} must be >= 0, got {weight}")
        if sum(weight for _, weight in self.weights()) <= 0:
            raise ValueError("at least one construct weight must be positive")

    def weights(self) -> List[Tuple[str, float]]:
        """(construct, weight) pairs in the canonical CONSTRUCTS order,
        then every opt-in family with a weight."""
        return [
            (name, getattr(self, f"w_{name}"))
            for name in CONSTRUCTS + OPT_IN_CONSTRUCTS
            if name in CONSTRUCTS or getattr(self, f"w_{name}") != 0
        ]

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe canonical form (sorted field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Named grammar profiles for the CLI (``repro fuzz --profile``).
PROFILES: Dict[str, Dict[str, float]] = {
    "default": {},
    # Escape-hatch heavy: stress escalation and the check-all fallback.
    "escape-heavy": {"w_escape": 12.0, "w_closure": 6.0, "w_consume": 4.0},
    # Pure-data programs: no escapes, no libsim — the PR 2/PR 4 core.
    "plain-data": {"w_escape": 0.0, "w_libsim": 0.0, "w_closure": 0.0,
                   "w_generator": 0.0, "w_consume": 0.0, "w_helper": 0.0},
    # Handle-heavy: pickle personalities and method-call dataflow.
    "libsim-heavy": {"w_libsim": 10.0, "w_mutate": 6.0},
    # Helper-function heavy: cross-cell defs/calls/rebinds exercising the
    # interprocedural summary layer (DESIGN.md §14) end to end.
    "func-heavy": {"w_helper": 14.0, "w_closure": 6.0, "w_mutate": 6.0,
                   "w_escape": 2.0, "w_generator": 1.0, "w_consume": 1.0,
                   "w_libsim": 1.0},
}
# func-heavy plus the hazard family: cells that raise, and stores the
# analysis cannot see coming (the cell outcome and binding comparison of
# DESIGN.md §14).
PROFILES["hazard-heavy"] = {**PROFILES["func-heavy"], "w_hazard": 10.0}


def profile(name: str, **overrides) -> FuzzConfig:
    """Build a :class:`FuzzConfig` from a named profile plus overrides."""
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown fuzz profile {name!r} (known: {known})")
    merged = dict(PROFILES[name])
    merged.update(overrides)
    return FuzzConfig(**merged)


@dataclass(frozen=True)
class FuzzProgram:
    """One generated notebook program, reproducible from (seed, config)."""

    seed: int
    config: FuzzConfig
    cells: Tuple[str, ...]
    #: Pre-generated continuation cells for checkout-and-branch rounds.
    branch_cells: Tuple[str, ...] = ()
    #: Construct family of each main cell, aligned with :attr:`cells`.
    kinds: Tuple[str, ...] = ()

    @property
    def text(self) -> str:
        """The full program as one string (cells joined by separators)."""
        return "\n# ---\n".join(self.cells)

    def fingerprint(self) -> str:
        """Process-stable identity of the program text."""
        digest = hashlib.sha256()
        for cell in self.cells + ("<branch>",) + self.branch_cells:
            digest.update(cell.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()


class _Namespace:
    """Deterministic bookkeeping of live names during generation.

    Everything is a list scanned in insertion order — sets or dicts keyed
    by name would put iteration order (and thus the emitted program) at
    the mercy of string hashing.
    """

    def __init__(self) -> None:
        self.data: List[str] = []  # plain values / structures
        self.generators: List[str] = []  # un-consumed generator objects
        self.handles: List[str] = []  # libsim handles
        self.dead: List[str] = []  # deleted, available for rebind
        #: Live helper functions: (name, behavior, written-global) where
        #: behavior is "global" | "mutate" | "alias".
        self.helpers: List[Tuple[str, str, str]] = []
        #: Global-storing functions reachable only indirectly: (call
        #: expression, written-global), e.g. ``("hz3[0]", "w2")``.
        self.holders: List[Tuple[str, str]] = []
        self._counter = 0

    def fresh(self, prefix: str, rng: random.Random) -> str:
        """A new name — reusing a dead one half the time (del + rebind)."""
        if self.dead and rng.random() < 0.5:
            name = self.dead.pop(0)
            return name
        self._counter += 1
        return f"{prefix}{self._counter}"

    @property
    def live(self) -> List[str]:
        return self.data + self.generators + self.handles

    def forget(self, name: str) -> None:
        for bucket in (self.data, self.generators, self.handles):
            if name in bucket:
                bucket.remove(name)

    def revive(self, name: str) -> None:
        """A hidden store just created (or rebound) global ``name``."""
        if name not in self.data:
            self.data.append(name)
            if name in self.dead:
                self.dead.remove(name)


class ProgramGenerator:
    """Composes random notebook programs from the weighted grammar."""

    def __init__(self, config: Optional[FuzzConfig] = None) -> None:
        self.config = config if config is not None else FuzzConfig()

    def generate(self, seed: int) -> FuzzProgram:
        rng = random.Random(seed)
        ns = _Namespace()
        cells: List[str] = []
        kinds: List[str] = []
        for index in range(self.config.cells):
            kind, cell = self._next_cell(rng, ns, index)
            cells.append(cell)
            kinds.append(kind)
        branch: List[str] = []
        for index in range(self.config.branch_cells):
            _, cell = self._next_cell(rng, ns, self.config.cells + index)
            branch.append(cell)
        return FuzzProgram(
            seed=seed,
            config=self.config,
            cells=tuple(cells),
            branch_cells=tuple(branch),
            kinds=tuple(kinds),
        )

    # -- construct selection ---------------------------------------------------

    def _next_cell(
        self, rng: random.Random, ns: _Namespace, n: int
    ) -> Tuple[str, str]:
        names, weights = zip(*self.config.weights())
        kind = rng.choices(names, weights=weights, k=1)[0]
        # Re-route infeasible picks deterministically rather than skipping
        # the cell: every program has exactly config.cells cells.
        if kind in ("mutate", "alias", "del_rebind", "conditional", "closure") and not ns.data:
            kind = "create"
        if kind == "consume" and not ns.generators:
            kind = "generator"
        if kind == "del_rebind" and len(ns.live) <= 2:
            kind = "create"
        if kind != "create" and len(ns.live) >= self.config.max_live:
            # Bound namespace growth: prefer mutation over creation.
            if kind in ("alias", "generator", "libsim", "escape") and ns.data:
                kind = "mutate"
        builder = getattr(self, f"_gen_{kind}")
        return kind, builder(rng, ns, n)

    # -- construct builders ----------------------------------------------------
    # Each returns one cell's source. {n} is the cell ordinal — the only
    # numeric entropy inside cell text, so text is trivially reproducible.

    def _gen_create(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        name = ns.fresh("v", rng)
        templates = (
            "{a} = [{n}, {n} + 1, {n} + 2]",
            "{a} = {{'k{n}': {n}, 'nested': [{n}, [{n} + 1]]}}",
            "{a} = list(range({n} % 7 + 1))",
            "{a} = {n} * 3 + 1",
            "{a} = 'text-{n}-' * ({n} % 3 + 1)",
            "{a} = ({n}, 'tag-{n}', [{n}, {n} + 1])",
            "{a} = {{{n} % 5, {n} % 3 + 7, {n} + 11}}",
        )
        cell = rng.choice(templates).format(a=name, n=n)
        ns.data.append(name)
        return cell

    def _gen_mutate(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        target = rng.choice(ns.data)
        list_ops = (
            "{a}.append({n})",
            "{a}.extend([{n}, {n} + 1])",
            "{a}.insert(0, {n})",
            "{a}.reverse()",
            "{a}.sort(key=repr)",
        )
        dict_ops = (
            "{a}['k{n}'] = {n}",
            "{a}.setdefault('nested', []).append({n})",
        )
        list_op = rng.choice(list_ops).format(a=target, n=n)
        dict_op = rng.choice(dict_ops).format(a=target, n=n)
        return (
            f"if isinstance({target}, list):\n"
            f"    {list_op}\n"
            f"elif isinstance({target}, dict):\n"
            f"    {dict_op}\n"
            f"elif isinstance({target}, set):\n"
            f"    {target}.add({n} % 13)\n"
            f"else:\n"
            f"    {target} = {n}"
        )

    def _gen_alias(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        target = rng.choice(ns.data)
        fresh = ns.fresh("v", rng)
        roll = rng.random()
        if roll < 0.4:
            # Direct alias: the purest co-variable merge.
            cell = f"{fresh} = {target}"
        elif roll < 0.7:
            other = rng.choice(ns.data)
            cell = (
                f"if isinstance({target}, (list, dict, set)):\n"
                f"    {fresh} = [{target}, {other}]\n"
                f"else:\n"
                f"    {fresh} = [{target}, {n}]"
            )
        else:
            cell = f"{fresh} = {{'ref': {target}, 'tag': {n}}}"
        ns.data.append(fresh)
        return cell

    def _gen_del_rebind(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        target = rng.choice(ns.data)
        ns.forget(target)
        ns.dead.append(target)
        return f"del {target}"

    def _gen_conditional(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        target = rng.choice(ns.data)
        fresh = ns.fresh("v", rng)
        ns.data.append(fresh)
        if rng.random() < 0.5:
            # Conditional *creation*: the write is CONDITIONAL statically
            # but both arms bind, so the name is always live at runtime.
            return (
                f"if len(repr({target})) % 2 == 0:\n"
                f"    {fresh} = [{n}, len(repr({target}))]\n"
                f"else:\n"
                f"    {fresh} = [{n} + 1]"
            )
        # Conditional in-place mutation through a guard.
        return (
            f"{fresh} = [{n}]\n"
            f"if isinstance({target}, list) and len({target}) % 2 == 1:\n"
            f"    {fresh}.append(len({target}))"
        )

    def _gen_closure(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        target = rng.choice(ns.data)
        func = f"f{n}"
        fresh = ns.fresh("v", rng)
        ns.data.append(fresh)
        if rng.random() < 0.5:
            # Read-capture: the body reads a global at call time.
            return (
                f"def {func}(x={n}):\n"
                f"    return (x, repr({target}))\n"
                f"{fresh} = [{func}()[0], len({func}()[1])]"
            )
        # Mutate-capture: the body mutates a live structure when called.
        return (
            f"def {func}():\n"
            f"    if isinstance({target}, list):\n"
            f"        {target}.append({n})\n"
            f"    return len(repr({target}))\n"
            f"{fresh} = [{func}(), {n}]"
        )

    def _gen_generator(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        name = ns.fresh("g", rng)
        ns.generators.append(name)
        return f"{name} = (i * {n % 5 + 2} for i in range({n} % 4 + 2))"

    def _gen_consume(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        target = rng.choice(ns.generators)
        ns.generators.remove(target)
        ns.dead.append(target)
        fresh = ns.fresh("v", rng)
        ns.data.append(fresh)
        # Drain the lazy generator cells after its creation, then drop it:
        # a consumed generator is useless *and* unserializable, and keeping
        # it live would make cold-prefix states depend on consumption
        # history in ways the §5.3 recompute path is allowed to decline.
        return f"{fresh} = list({target})\ndel {target}"

    def _gen_escape(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        name = ns.fresh("e", rng)
        ns.data.append(name)
        roll = rng.random()
        if roll < 0.4:
            return f"globals()['{name}'] = [{n}, {n} + 1]"
        if roll < 0.8:
            return f"exec(\"{name} = [{n} * 2]\")"
        # Escape *mutation* of an existing structure via globals().
        target = rng.choice(ns.data)
        return (
            f"{name} = [{n}]\n"
            f"if isinstance(globals()['{target}'], list):\n"
            f"    globals()['{target}'].append({n})"
        )

    def _gen_helper(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        roll = rng.random()
        if ns.helpers and roll < 0.40 and ns.data:
            return self._helper_call(rng, ns, n)
        if ns.helpers and roll < 0.55:
            # Rebind-after-call: the summary is invalidated and every
            # later call falls back to the conservative analysis.
            func, _, _ = ns.helpers.pop(rng.randrange(len(ns.helpers)))
            ns.data.append(func)
            return f"{func} = [{n}, 'rebound']"
        return self._helper_define(rng, ns, n)

    def _helper_define(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        # "uf" prefix: never collides with the counter-based v*/g*/h*/e*
        # names (f* is taken by the closure construct's cell-local defs).
        func = f"uf{n}"
        roll = rng.random()
        if roll < 0.35:
            # Hidden global store: STORE_GLOBAL from the body is invisible
            # to tracking; the summary layer defers the escape to the call
            # sites instead of escalating this def cell.
            target = ns.fresh("w", rng)
            ns.helpers.append((func, "global", target))
            return (
                f"def {func}(n):\n"
                f"    global {target}\n"
                f"    {target} = [n, n + 1]\n"
                f"    return n % 7"
            )
        if roll < 0.7:
            ns.helpers.append((func, "mutate", ""))
            return (
                f"def {func}(xs, n):\n"
                f"    if isinstance(xs, list):\n"
                f"        xs.append(n)\n"
                f"    elif isinstance(xs, dict):\n"
                f"        xs['h{n}'] = n\n"
                f"    return len(repr(xs))"
            )
        ns.helpers.append((func, "alias", ""))
        return (
            f"def {func}(xs):\n"
            f"    return xs"
        )

    def _helper_call(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        func, behavior, written = ns.helpers[rng.randrange(len(ns.helpers))]
        fresh = ns.fresh("v", rng)
        if behavior == "global":
            cell = f"{fresh} = [{func}({n}), {n}]"
            ns.data.append(fresh)
            ns.revive(written)
            return cell
        if behavior == "mutate":
            target = rng.choice(ns.data)
            ns.data.append(fresh)
            return f"{fresh} = [{func}({target}, {n}), {n}]"
        # Alias-returning helper: direct call merges co-variables; the
        # callback form loads the helper outside a call position.
        if rng.random() < 0.35:
            ns.data.append(fresh)
            return f"{fresh} = sorted([{n} % 5, {n} % 3 + 1], key={func})"
        target = rng.choice(ns.data)
        ns.data.append(fresh)
        return f"{fresh} = {func}({target})"

    def _gen_libsim(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        roll = rng.random()
        if not ns.handles or roll < 0.5:
            name = ns.fresh("h", rng)
            ns.handles.append(name)
            seed = n % 17
            if roll < 0.25:
                return (
                    "import repro.libsim.data_analysis as _simda\n"
                    f"{name} = _simda.SimDataFrame(n_rows=6, n_cols=3, seed={seed})"
                )
            return (
                "import repro.libsim.data_analysis as _simda\n"
                f"{name} = _simda.SimSeries(n=8, seed={seed})"
            )
        target = rng.choice(ns.handles)
        if roll < 0.68:
            # Stub-covered pure read: with stubs on, this cell must NOT
            # mark the handle as a mutator (the PR 9 de-escalation win).
            fresh = ns.fresh("v", rng)
            ns.data.append(fresh)
            return (
                f"if hasattr({target}, 'mean_of'):\n"
                f"    {fresh} = [round({target}.mean_of('c0'), 9), {n}]\n"
                f"else:\n"
                f"    {fresh} = [round(float({target}.series.values.sum()), 9), {n}]"
            )
        if roll < 0.84:
            # Stub-covered in-place mutator (SimSeries.standardize is
            # stubbed "mutates"): the oracle checks the mutation is
            # attributed to this cell's delta under stubs too. The
            # SimDataFrame arm mutates the underlying frame directly so
            # both handle kinds change state deterministically.
            return (
                f"if hasattr({target}, 'standardize'):\n"
                f"    {target}.standardize()\n"
                f"else:\n"
                f"    {target}.frame.apply_inplace('c0', lambda _v: _v + {n % 7})"
            )
        # Stub-covered pure clone (SimDataFrame.drop_column returns a
        # fresh SimDataFrame and must not be attributed to the receiver).
        fresh = ns.fresh("h", rng)
        ns.handles.append(fresh)
        return (
            f"if hasattr({target}, 'drop_column'):\n"
            f"    {fresh} = {target}.drop_column('c1')\n"
            f"else:\n"
            f"    {fresh} = {target}"
        )

    def _gen_hazard(self, rng: random.Random, ns: _Namespace, n: int) -> str:
        roll = rng.random()
        if ns.holders and roll < 0.35:
            # An indirect call: no call site names the function, so no
            # summary expands and nothing escalates.
            call, written = ns.holders[rng.randrange(len(ns.holders))]
            fresh = ns.fresh("v", rng)
            ns.data.append(fresh)
            ns.revive(written)
            return f"{fresh} = [{call}({n}), {n}]"
        stores = [func for func, behavior, _ in ns.helpers if behavior == "global"]
        if stores and roll < 0.6:
            # The def never runs: the live helper keeps its hidden store.
            func = rng.choice(stores)
            return f"{n} // 0\ndef {func}(n):\n    return n % 7"
        helpers = [func for func, _, _ in ns.helpers]
        targets = ns.handles + helpers + ns.data
        if targets and roll < 0.8:
            # The rebind runs, then the cell raises.
            target = rng.choice(targets)
            if target in helpers:
                ns.helpers.pop(helpers.index(target))
            ns.forget(target)
            ns.data.append(target)
            return f"{target} = [{n}]\n{n} // 0"
        # A global-storing function behind a list element, a namespace
        # attribute or a notebook class's method. The class pickles by
        # reference to a ``__main__`` that lacks it, so checkout replays
        # the class and its instance.
        written = ns.fresh("w", rng)
        body = f"global {written}\n{written} = [n, n + 1]\nreturn n % 7\n"
        define = f"def _hz{n}(n):\n" + textwrap.indent(body, "    ")
        holder = rng.random()
        if holder < 0.5:
            ns.holders.append((f"hz{n}[0]", written))
            return f"{define}hz{n} = [_hz{n}]"
        ns.holders.append((f"hz{n}.bump", written))
        if holder < 0.75:
            return f"import types\n{define}hz{n} = types.SimpleNamespace(bump=_hz{n})"
        method = "    def bump(self, n):\n" + textwrap.indent(body, " " * 8)
        return f"class _Hz{n}:\n{method}hz{n} = _Hz{n}()"

"""Library effect stubs: format, registry, type tracking, analysis.

Covers the PR 9 static side (DESIGN.md §15): stub parsing and loading,
the flow-insensitive local type tracker, call-site resolution, and the
integration into :func:`~repro.analysis.visitor.analyze_cell` — plus
the star-import property the whole layer's soundness rests on: a stub
never fires on a binding the tracker cannot prove.
"""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis.effects import EscapeKind
from repro.analysis.stubs import (
    STUB_FORMAT_VERSION,
    CallStub,
    StubError,
    StubRegistry,
    default_registry,
    parse_stub_mapping,
    shipped_stub_files,
)
from repro.analysis.typetrack import (
    INSTANCE,
    MODULE,
    StubContext,
    stub_call_mutates,
    stub_is_pure_at,
)
from repro.analysis.visitor import analyze_cell


def _registry(mapping):
    registry = StubRegistry()
    registry.add_mapping(mapping)
    return registry


PANDAS_LIKE = {
    "stub_format": STUB_FORMAT_VERSION,
    "module": "pdlike",
    "functions": {
        "read_csv": {"effect": "pure", "returns": "Frame"},
    },
    "types": {
        "Frame": {
            "constructor": {"effect": "pure"},
            "methods": {
                "head": {"effect": "pure"},
                "sort_values": {
                    "effect": "pure",
                    "mutates_if": {"kwarg": "inplace", "default": False},
                },
                "insert": {"effect": "mutates"},
                "merge_into": {"effect": "pure", "mutates_args": [0]},
                "register": {
                    "effect": "pure",
                    "writes_globals": ["_registry"],
                },
                "do_exec": {"effect": "pure", "escape": "exec-eval"},
            },
        }
    },
}


class TestStubFormat:
    def test_parse_and_lookup(self):
        registry = _registry(PANDAS_LIKE)
        assert registry.has_module("pdlike")
        stub = registry.function("pdlike", "read_csv")
        assert stub is not None and stub.returns == "pdlike.Frame"
        method = registry.method("pdlike.Frame", "insert")
        assert method is not None and method.effect == "mutates"

    def test_format_version_mismatch_rejected(self):
        bad = dict(PANDAS_LIKE, stub_format=99)
        with pytest.raises(StubError):
            parse_stub_mapping(bad)

    def test_malformed_effect_rejected(self):
        bad = {
            "stub_format": STUB_FORMAT_VERSION,
            "module": "m",
            "functions": {"f": {"effect": "sideways"}},
        }
        with pytest.raises(StubError):
            parse_stub_mapping(bad)

    def test_multi_module_form(self):
        mapping = {
            "stub_format": STUB_FORMAT_VERSION,
            "modules": [
                {"module": "a", "functions": {"f": {"effect": "pure"}}},
                {"module": "b", "functions": {"g": {"effect": "mutates"}}},
            ],
        }
        registry = StubRegistry()
        registry.add_mapping(mapping)
        assert registry.has_module("a") and registry.has_module("b")

    def test_fingerprint_tracks_content(self):
        one = _registry(PANDAS_LIKE)
        two = _registry(PANDAS_LIKE)
        assert one.fingerprint() == two.fingerprint()
        changed = json.loads(json.dumps(PANDAS_LIKE))
        changed["types"]["Frame"]["methods"]["head"]["effect"] = "mutates"
        assert _registry(changed).fingerprint() != one.fingerprint()

    def test_cached_fingerprint_follows_additions(self):
        registry = default_registry()
        cached = registry.fingerprint()
        assert registry.fingerprint() == cached == registry._digest()
        registry.add_mapping(PANDAS_LIKE)
        assert registry.fingerprint() != cached
        assert registry.fingerprint() == registry._digest()
        fresh = default_registry()
        fresh.add_mapping(PANDAS_LIKE)
        assert fresh.fingerprint() == registry.fingerprint()

    def test_shipped_stubs_load(self):
        assert shipped_stub_files()
        registry = default_registry()
        assert registry.has_module("repro.libsim.data_analysis")
        assert registry.has_module("random")
        # RNG draws must be stubbed as mutating the module state: replay
        # plans that dropped seed/draw cells would replay different
        # numbers.
        for name in ("seed", "random", "randint", "shuffle"):
            stub = registry.function("random", name)
            assert stub is not None
            assert stub.effect == "mutates" or stub.mutates_args

    def test_mutates_if_call_sites(self):
        registry = _registry(PANDAS_LIKE)
        stub = registry.method("pdlike.Frame", "sort_values")
        pure_call = ast.parse("df.sort_values('c')").body[0].value
        inplace = ast.parse("df.sort_values('c', inplace=True)").body[0].value
        dynamic = ast.parse("df.sort_values('c', inplace=flag)").body[0].value
        splat = ast.parse("df.sort_values('c', **kw)").body[0].value
        assert not stub_call_mutates(stub, pure_call)
        assert stub_call_mutates(stub, inplace)
        assert stub_call_mutates(stub, dynamic)  # non-literal: conservative
        assert stub_call_mutates(stub, splat)

    def test_whole_call_purity(self):
        registry = _registry(PANDAS_LIKE)
        head = registry.method("pdlike.Frame", "head")
        merge = registry.method("pdlike.Frame", "merge_into")
        register = registry.method("pdlike.Frame", "register")
        call = ast.parse("df.head()").body[0].value
        assert stub_is_pure_at(head, call)
        # Argument mutation and hidden writes defeat purity even when
        # the receiver itself is untouched.
        assert not stub_is_pure_at(merge, call)
        assert not stub_is_pure_at(register, call)

    def test_is_pure_requires_no_effects_at_all(self):
        assert CallStub(qualname="m.f").is_pure
        assert not CallStub(qualname="m.f", mutates_args=(0,)).is_pure
        assert not CallStub(qualname="m.f", writes_globals=("g",)).is_pure
        assert not CallStub(qualname="m.f", escape="exec-eval").is_pure


class TestTypeTracking:
    def _env(self):
        return StubContext(_registry(PANDAS_LIKE))

    def _resolve(self, env, source):
        module = ast.parse(source)
        return env.resolver(module)

    def test_import_and_constructor_binding(self):
        env = self._env()
        env.observe_cell("import pdlike")
        env.observe_cell("df = pdlike.read_csv('x.csv')")
        resolver = self._resolve(env, "df.head()")
        resolved = resolver.resolve_call(
            ast.parse("df.head()").body[0].value
        )
        assert resolved is not None
        assert resolved.qualname == "pdlike.Frame.head"
        assert resolved.receiver == "df"
        assert resolved.receiver_type.kind == INSTANCE

    def test_import_alias(self):
        env = self._env()
        env.observe_cell("import pdlike as pd")
        resolver = self._resolve(env, "pd.read_csv('x')")
        resolved = resolver.resolve_call(
            ast.parse("pd.read_csv('x')").body[0].value
        )
        assert resolved is not None
        assert resolved.receiver_type.kind == MODULE

    def test_rebind_to_unknown_poisons(self):
        env = self._env()
        env.observe_cell("import pdlike")
        env.observe_cell("df = pdlike.read_csv('x')")
        env.observe_cell("df = mystery()")
        resolver = self._resolve(env, "df.head()")
        assert resolver.resolve_call(
            ast.parse("df.head()").body[0].value
        ) is None

    def test_star_import_wipes_env(self):
        env = self._env()
        env.observe_cell("import pdlike")
        env.observe_cell("df = pdlike.read_csv('x')")
        env.observe_cell("from mystery import *")
        resolver = self._resolve(env, "df.head()")
        assert resolver.resolve_call(
            ast.parse("df.head()").body[0].value
        ) is None

    def test_failed_cell_does_not_advance_env(self):
        env = self._env()
        env.observe_cell("import pdlike")
        env.observe_cell("df = mystery()", executed=False)
        assert "pdlike" in env.current()
        assert "df" not in env.current()

    def test_env_at_is_a_snapshot(self):
        env = self._env()
        env.observe_cell("import pdlike")
        env.observe_cell("df = pdlike.read_csv('x')")
        assert "df" not in env.env_at(1)
        assert "df" in env.env_at(2)

    def test_unknown_library_call_names_stub_file(self):
        registry = default_registry()
        env = StubContext(registry)
        env.observe_cell(
            "from repro.libsim.data_analysis import SimDataFrame"
        )
        env.observe_cell("df = SimDataFrame()")
        module = ast.parse("df.frobnicate()")
        resolver = env.resolver(module)
        unknown = resolver.unknown_library_call(module.body[0].value)
        assert unknown is not None
        assert unknown.qualname.endswith("SimDataFrame.frobnicate")
        assert unknown.stub_file and "libsim_data_analysis" in unknown.stub_file


class TestAnalyzeCellIntegration:
    def _context(self):
        return StubContext(registry=_registry(PANDAS_LIKE))

    def test_pure_read_and_mutator_split(self):
        ctx = self._context()
        ctx.observe_cell("import pdlike")
        ctx.observe_cell("df = pdlike.read_csv('x')")
        effects = analyze_cell("h = df.head()\ndf.insert()", stubs=ctx)
        # Raw effects record both facts; consumers (the session's
        # purity witness set) subtract mutations from pure receivers.
        assert "df" in effects.stub_pure_receivers
        assert "df" in effects.stub_mutations
        assert effects.stub_expansions == 2

    def test_pure_only_receiver_recorded(self):
        ctx = self._context()
        ctx.observe_cell("import pdlike")
        ctx.observe_cell("df = pdlike.read_csv('x')")
        effects = analyze_cell("h = df.head()", stubs=ctx)
        assert effects.stub_pure_receivers == {"df"}
        assert effects.stub_mutations == set()

    def test_argument_mutation_attributed(self):
        ctx = self._context()
        ctx.observe_cell("import pdlike")
        ctx.observe_cell("df = pdlike.read_csv('x')")
        ctx.observe_cell("other = pdlike.read_csv('y')")
        effects = analyze_cell("df.merge_into(other)", stubs=ctx)
        assert "other" in effects.stub_mutations

    def test_hidden_global_write_folded(self):
        ctx = self._context()
        ctx.observe_cell("import pdlike")
        ctx.observe_cell("df = pdlike.read_csv('x')")
        effects = analyze_cell("df.register()", stubs=ctx)
        assert "_registry" in effects.stub_writes
        assert "_registry" in effects.conditional_writes

    def test_stub_escape_surfaces(self):
        ctx = self._context()
        ctx.observe_cell("import pdlike")
        ctx.observe_cell("df = pdlike.read_csv('x')")
        effects = analyze_cell("df.do_exec()", stubs=ctx)
        assert any(
            escape.kind is EscapeKind.EXEC_EVAL for escape in effects.escapes
        )

    def test_unknown_library_call_counted(self):
        ctx = self._context()
        ctx.observe_cell("import pdlike")
        ctx.observe_cell("df = pdlike.read_csv('x')")
        effects = analyze_cell("df.pivot()", stubs=ctx)
        assert effects.stub_unknown_calls == 1
        assert effects.stub_expansions == 0

    def test_no_stub_context_is_inert(self):
        effects = analyze_cell("h = df.head()")
        assert effects.stub_expansions == 0
        assert effects.stub_pure_receivers == set()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


_METHODS = st.sampled_from(["head", "sort_values", "insert", "pivot"])
_NAMES = st.sampled_from(["df", "frame", "x", "data"])


@st.composite
def _programs(draw):
    """A notebook prefix with provable bindings, a star import at a
    random position, and arbitrary method calls sprinkled throughout."""
    cells = ["import pdlike"]
    bound = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    for name in bound:
        cells.append(f"{name} = pdlike.read_csv('x')")
    star_at = draw(st.integers(min_value=0, max_value=3))
    calls = draw(
        st.lists(st.tuples(_NAMES, _METHODS), min_size=1, max_size=6)
    )
    call_cells = [f"{name}.{method}()" for name, method in calls]
    call_cells.insert(
        min(star_at, len(call_cells)), "from mystery import *"
    )
    return cells, call_cells


@settings(max_examples=80, deadline=None)
@given(_programs())
def test_stubs_never_fire_on_unprovable_bindings(program):
    """Satellite 3: after a star import, nothing is provable — no stub
    may fire on any receiver, however it was bound before."""
    prefix, call_cells = program
    ctx = StubContext(registry=_registry(PANDAS_LIKE))
    for cell in prefix:
        ctx.observe_cell(cell)
    star_seen = False
    for cell in call_cells:
        effects = analyze_cell(cell, stubs=ctx)
        if star_seen:
            assert effects.stub_expansions == 0, cell
            assert not effects.stub_mutations, cell
            assert not effects.stub_pure_receivers, cell
        if "import *" in cell:
            star_seen = True
        ctx.observe_cell(cell)

"""Unit tests for the static cell-effect analyzer (DESIGN.md §8)."""

from __future__ import annotations

import pytest

from repro.analysis import CellEffects, EscapeKind, analyze_cell


class TestBasicEffects:
    def test_simple_assignment(self):
        effects = analyze_cell("x = 1")
        assert effects.writes == {"x"}
        assert not effects.reads
        assert not effects.escapes

    def test_read_then_write(self):
        effects = analyze_cell("y = x + 1")
        assert effects.reads == {"x"}
        assert effects.writes == {"y"}

    def test_aug_assign_reads_and_writes(self):
        effects = analyze_cell("x += 1")
        assert "x" in effects.reads
        assert "x" in effects.writes

    def test_delete(self):
        effects = analyze_cell("del x")
        assert effects.deletes == {"x"}

    def test_subscript_store_is_a_read_not_a_write(self):
        # ``d['k'] = v`` mutates through d without rebinding the name.
        effects = analyze_cell("d['k'] = v")
        assert "d" in effects.reads
        assert "d" not in effects.all_writes

    def test_attribute_store_is_a_read_not_a_write(self):
        effects = analyze_cell("obj.attr = 1")
        assert "obj" in effects.reads
        assert "obj" not in effects.all_writes

    def test_tuple_unpacking(self):
        effects = analyze_cell("a, (b, *c) = xs")
        assert effects.writes == {"a", "b", "c"}
        assert effects.reads == {"xs"}

    def test_builtin_calls_are_reads(self):
        effects = analyze_cell("print(len(xs))")
        assert {"print", "len", "xs"} <= effects.reads

    def test_import_writes_binding(self):
        effects = analyze_cell("import os.path\nimport json as j")
        assert {"os", "j"} <= effects.writes

    def test_from_import_writes_names(self):
        effects = analyze_cell("from collections import deque, Counter as C")
        assert {"deque", "C"} <= effects.writes

    def test_annotated_assignment(self):
        effects = analyze_cell("x: int = 5")
        assert "x" in effects.writes
        assert "int" in effects.reads

    def test_bare_annotation_binds_nothing(self):
        effects = analyze_cell("x: int")
        assert "x" not in effects.all_writes

    def test_syntax_error_yields_empty_effects(self):
        effects = analyze_cell("def broken(:")
        assert effects.syntax_error is not None
        assert not effects.all_accessed
        assert effects.is_opaque


class TestConditionality:
    def test_if_branches_are_conditional(self):
        effects = analyze_cell("if cond:\n    a = 1\nelse:\n    b = 2")
        assert "cond" in effects.reads
        assert effects.conditional_writes == {"a", "b"}
        assert not effects.writes

    def test_loop_bodies_are_conditional(self):
        effects = analyze_cell("for i in xs:\n    total = total + i")
        assert "xs" in effects.reads
        assert "i" in effects.conditional_writes
        assert "total" in effects.conditional_reads
        assert "total" in effects.conditional_writes

    def test_while_test_definite_body_conditional(self):
        effects = analyze_cell("while flag:\n    flag = step()")
        assert "flag" in effects.reads
        assert "flag" in effects.conditional_writes

    def test_try_body_conditional_finally_definite(self):
        effects = analyze_cell(
            "try:\n    a = risky()\nexcept ValueError as err:\n    b = 1\n"
            "finally:\n    c = 2"
        )
        assert {"a", "b", "err"} <= effects.conditional_writes
        assert "err" in effects.conditional_deletes  # unbound on handler exit
        assert "c" in effects.writes

    def test_boolop_tail_conditional(self):
        effects = analyze_cell("a or b")
        assert "a" in effects.reads
        assert "b" in effects.conditional_reads

    def test_ifexp_branches_conditional(self):
        effects = analyze_cell("r = x if cond else y")
        assert "cond" in effects.reads
        assert {"x", "y"} <= effects.conditional_reads

    def test_chained_comparison_tail_conditional(self):
        effects = analyze_cell("a < b < c")
        assert {"a", "b"} <= effects.reads
        assert "c" in effects.conditional_reads

    def test_assert_message_conditional(self):
        effects = analyze_cell("assert ok, msg")
        assert "ok" in effects.reads
        assert "msg" in effects.conditional_reads

    def test_function_bodies_conditional(self):
        effects = analyze_cell("def f():\n    return data")
        assert "f" in effects.writes
        assert "data" in effects.conditional_reads
        assert "data" not in effects.reads

    def test_lambda_body_conditional(self):
        effects = analyze_cell("g = lambda: data")
        assert "g" in effects.writes
        assert "data" in effects.conditional_reads

    def test_default_args_definite(self):
        effects = analyze_cell("def f(x=seed):\n    return x")
        assert "seed" in effects.reads

    def test_class_body_definite(self):
        effects = analyze_cell("class C:\n    limit = threshold")
        assert "C" in effects.writes
        assert "threshold" in effects.reads
        # ``limit`` is a class attribute, not a cell global.
        assert "limit" not in effects.all_writes


class TestScoping:
    def test_function_locals_not_cell_writes(self):
        effects = analyze_cell("def f():\n    x = 1\n    return x")
        assert "x" not in effects.all_writes
        assert "x" not in effects.all_reads

    def test_global_declaration_is_cell_write(self):
        effects = analyze_cell("def f():\n    global g\n    g = 1")
        assert "g" in effects.conditional_writes

    def test_closure_read_is_not_global(self):
        effects = analyze_cell(
            "def outer():\n    y = 1\n    def inner():\n        return y\n"
            "    return inner"
        )
        assert "y" not in effects.all_reads

    def test_comprehension_variable_does_not_leak(self):
        effects = analyze_cell("squares = [i * i for i in rng]")
        assert "squares" in effects.writes
        assert "rng" in effects.reads
        assert "i" not in effects.all_writes
        assert "i" not in effects.all_reads

    def test_comprehension_outer_iterable_definite(self):
        effects = analyze_cell("gen = (f(i) for i in source)")
        assert "source" in effects.reads  # evaluated eagerly
        assert "f" in effects.conditional_reads  # evaluated lazily

    def test_walrus_at_module_level_definite(self):
        effects = analyze_cell("(n := 10)")
        assert "n" in effects.writes

    def test_walrus_in_comprehension_binds_globally(self):
        effects = analyze_cell("ys = [(acc := acc + i) for i in rng]")
        assert "acc" in effects.conditional_writes
        assert "ys" in effects.writes

    def test_nested_function_parameters_shadow(self):
        effects = analyze_cell("def f(data):\n    return data")
        assert "data" not in effects.all_reads

    def test_except_as_shadowing(self):
        effects = analyze_cell(
            "try:\n    pass\nexcept Exception as exc:\n    print(exc)"
        )
        assert "exc" in effects.conditional_writes
        assert "exc" in effects.conditional_deletes


class TestEscapes:
    @pytest.mark.parametrize(
        "source, kind",
        [
            ("exec('x = 1')", EscapeKind.EXEC_EVAL),
            ("y = eval('1 + 1')", EscapeKind.EXEC_EVAL),
            ("code = compile(src, '<s>', 'exec')", EscapeKind.EXEC_EVAL),
            ("g = globals()", EscapeKind.NAMESPACE_INTROSPECTION),
            ("l = locals()", EscapeKind.NAMESPACE_INTROSPECTION),
            ("v = vars()", EscapeKind.NAMESPACE_INTROSPECTION),
            ("m = __import__('os')", EscapeKind.DYNAMIC_IMPORT),
            ("import importlib", EscapeKind.DYNAMIC_IMPORT),
            ("import importlib.util", EscapeKind.DYNAMIC_IMPORT),
            ("from importlib import import_module", EscapeKind.DYNAMIC_IMPORT),
            ("from os.path import *", EscapeKind.STAR_IMPORT),
            ("setattr(obj, name, value)", EscapeKind.NAME_REFLECTION),
            ("delattr(obj, name)", EscapeKind.NAME_REFLECTION),
            ("import sys\nf = sys._getframe()", EscapeKind.FRAME_INTROSPECTION),
            (
                "import inspect\nfr = inspect.currentframe()",
                EscapeKind.FRAME_INTROSPECTION,
            ),
            ("ns = func.__globals__", EscapeKind.FRAME_INTROSPECTION),
            ("d = frame.f_locals", EscapeKind.FRAME_INTROSPECTION),
            ("import os\nos.sep = '/'", EscapeKind.MODULE_PATCH),
            (
                "def bump():\n    global counter\n    counter = 1\nbump()",
                EscapeKind.HIDDEN_GLOBAL_STORE,
            ),
            (
                "ys = [(total := i) for i in rng]",
                EscapeKind.HIDDEN_GLOBAL_STORE,
            ),
            (
                "def drop():\n    global tmp\n    del tmp\ndrop()",
                EscapeKind.HIDDEN_GLOBAL_STORE,
            ),
        ],
    )
    def test_escape_detected(self, source, kind):
        effects = analyze_cell(source)
        assert any(escape.kind is kind for escape in effects.escapes), source
        assert effects.is_opaque

    def test_aliasing_an_escape_callable_is_flagged(self):
        effects = analyze_cell("run = exec")
        assert effects.escapes_of(EscapeKind.EXEC_EVAL)

    def test_star_import_sets_opaque_writes(self):
        effects = analyze_cell("from math import *")
        assert effects.opaque_writes

    def test_escape_span_is_precise(self):
        effects = analyze_cell("x = 1\ny = eval('2')")
        (escape,) = effects.escapes
        assert escape.span.line == 2
        assert escape.span.col == 4

    def test_attribute_store_on_non_module_is_clean(self):
        effects = analyze_cell("obj.attr = 1")
        assert not effects.escapes

    def test_module_level_walrus_is_not_a_hidden_store(self):
        # STORE_NAME at module level goes through the patched dict.
        effects = analyze_cell("(n := 10)")
        assert not effects.escapes_of(EscapeKind.HIDDEN_GLOBAL_STORE)

    def test_function_local_walrus_in_comprehension_is_clean(self):
        # The walrus binds in the enclosing *function* scope, not the
        # module globals — no hidden global store.
        effects = analyze_cell(
            "def f(rng):\n    return [(m := i) for i in rng]"
        )
        assert not effects.escapes

    def test_clean_cell_has_no_escapes(self):
        effects = analyze_cell(
            "xs = [1, 2, 3]\ntotal = sum(xs)\nprint(total)"
        )
        assert not effects.escapes
        assert not effects.is_opaque


class TestDerivedViewsAndMerge:
    def test_definite_accesses(self):
        effects = analyze_cell("y = x\nif y:\n    z = w")
        assert effects.definite_accesses == frozenset({"x", "y"})

    def test_all_writes_union(self):
        effects = analyze_cell("a = 1\nif a:\n    b = 2")
        assert effects.all_writes == frozenset({"a", "b"})

    def test_empty_cell(self):
        effects = analyze_cell("")
        assert not effects.all_accessed
        assert not effects.escapes
        assert isinstance(effects, CellEffects)

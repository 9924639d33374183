"""``repro.parsing.parse``: the program's only call to ``ast.parse``.

CPython 3.11's AST constructor keeps its recursion depth in
interpreter-wide state, so two threads parsing at once can fail with
``SystemError: AST constructor recursion depth mismatch`` — a soak worker
hit it. The stress test below reproduces that race with bare ``ast.parse``
on 3.11 (four threads, finalizers that run Python code, a tiny switch
interval); through :func:`repro.parsing.parse` it must raise nothing.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading
import time
from typing import Callable, List

from repro.parsing import parse

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

SOURCE = "\n".join(
    f"def f{i}(a, b):\n    x = [a, b, {i}]\n    return {{'k': x, 'v': (a + b) * {i}}}\n"
    for i in range(40)
)


class _Garbage:
    """Cyclic garbage whose finalizer runs Python code, so the collector
    can hand the GIL to another thread in the middle of a parse."""

    def __init__(self) -> None:
        self.me = self

    def __del__(self) -> None:
        sum(range(20))


def stress(parser: Callable[[str], ast.Module], seconds: float) -> List[BaseException]:
    errors: List[BaseException] = []
    deadline = time.monotonic() + seconds

    def worker() -> None:
        while time.monotonic() < deadline:
            for _ in range(5):
                _Garbage()
            try:
                parser(SOURCE)
            except SystemError as exc:
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return errors


def test_concurrent_parses_do_not_race():
    started = time.monotonic()
    assert stress(parse, seconds=1.6) == []
    assert time.monotonic() - started < 10


def test_parse_matches_ast_parse():
    assert ast.dump(parse(SOURCE)) == ast.dump(ast.parse(SOURCE))


def test_no_other_ast_parse_call_in_the_program():
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "parsing.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "ast.parse(" in line
    ]
    assert offenders == []

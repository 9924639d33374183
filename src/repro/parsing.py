"""The one way the program parses Python source.

CPython 3.11's ``ast.parse`` is not safe to run on several threads at
once: the AST constructor keeps its recursion depth in interpreter-wide
state, so when a parse on one thread yields the GIL (a finalizer runs
Python code while the tree is being built) and another thread parses,
the first fails with ``SystemError: AST constructor recursion depth
mismatch``. The service and the soak runner analyse cells on concurrent
threads, so every parse goes through :func:`parse`, which holds one
process-wide lock. The lock is re-entrant because a finalizer that runs
on the parsing thread may parse too.
"""

from __future__ import annotations

import ast
import threading

_PARSE_LOCK = threading.RLock()


def parse(source: str) -> ast.Module:
    """``ast.parse(source)``, one thread at a time; raises
    :class:`SyntaxError` as ``ast.parse`` does."""
    with _PARSE_LOCK:
        return ast.parse(source)

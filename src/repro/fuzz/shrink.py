"""Shrinker: minimize a failing fuzz program to a small repro.

Classic delta debugging (ddmin) over the cell list: try dropping
complements of ever-finer chunk partitions, keeping any candidate that
still fails the predicate. Candidate programs with dangling references
remain valid oracle inputs — the oracle runs cells with
``raise_on_error=False``, so a ``NameError`` is just deterministic state
both the tracked and cold runs share.

:func:`emit_regression_test` renders the minimized program as a
ready-to-commit pytest file for ``tests/regressions/`` — the workflow
every divergence the fuzzer finds goes through (DESIGN.md §12).
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

from repro.fuzz.grammar import FuzzConfig, FuzzProgram
from repro.fuzz.oracle import run_cells_oracle

__all__ = ["shrink_cells", "shrink_program", "emit_regression_test"]


def shrink_cells(
    cells: Sequence[str],
    still_fails: Callable[[List[str]], bool],
    *,
    max_attempts: int = 500,
) -> List[str]:
    """Minimize ``cells`` while ``still_fails`` keeps returning True.

    Returns a 1-minimal (under chunk removal) failing sublist; if the
    input doesn't fail at all, it is returned unchanged. The predicate
    is never called on the empty program. Deterministic: candidate order
    is a pure function of the input.
    """
    current = list(cells)
    if not current or not still_fails(current):
        return current
    attempts = 0
    granularity = 2
    while len(current) >= 2 and attempts < max_attempts:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current) and attempts < max_attempts:
            candidate = current[:start] + current[start + chunk:]
            if candidate:
                attempts += 1
                if still_fails(candidate):
                    current = candidate
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    # Restart the sweep at this position with the new list.
                    continue
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(current))
    return current


def shrink_program(
    program: FuzzProgram,
    *,
    kind: Optional[str] = None,
    max_attempts: int = 200,
) -> List[str]:
    """Minimize a generated program against the differential oracle.

    The predicate re-runs the full oracle on the candidate cells, with
    the program's branch cells (so a divergence found only in a branch
    round shrinks too), and keeps candidates that still produce a
    divergence, of the original ``kind`` when given. Only the main cells
    shrink; the branch cells stay whole.
    """

    def still_fails(candidate: List[str]) -> bool:
        report = run_cells_oracle(
            candidate, seed=program.seed, branch_cells=program.branch_cells
        )
        if kind is None:
            return not report.ok
        return any(d.kind == kind for d in report.divergences)

    return shrink_cells(program.cells, still_fails, max_attempts=max_attempts)


_TEMPLATE = '''"""Pinned-seed fuzz regression (auto-generated by repro.fuzz).

Seed: {seed}
Origin: {origin}
Shrunk: {original} cell(s) -> {shrunk}

Regenerate the original program with:
    repro fuzz --profile {profile} --seed {seed} --cells {original}
"""

from repro.fuzz.oracle import run_cells_oracle

CELLS = [
{cells}
]

BRANCH_CELLS = [
{branch_cells}
]


def test_{name}():
    report = run_cells_oracle(CELLS, seed={seed}, branch_cells=tuple(BRANCH_CELLS))
    assert report.ok, report.describe()
'''


def emit_regression_test(
    cells: Sequence[str],
    *,
    seed: int,
    path: str,
    original_cells: Optional[int] = None,
    config: Optional[FuzzConfig] = None,
    origin: str = "repro fuzz",
    profile: str = "default",
    branch_cells: Sequence[str] = (),
) -> str:
    """Write a ready-to-commit pytest file pinning ``cells`` as a repro.

    The emitted test asserts the oracle *passes* — committed once the
    underlying bug is fixed, it keeps the divergence from regressing.
    It runs the oracle's branch rounds over ``branch_cells``, the
    program's continuation cells. Its docstring names the command that
    regenerates the original program, under ``profile``, the grammar
    profile it came from. Returns the path written.
    """
    rendered = "\n".join(f"    {cell!r}," for cell in cells)
    name = f"fuzz_seed_{seed}".replace("-", "_")
    origin_line = origin
    if config is not None:
        origin_line = f"{origin} (config: {config.to_dict()})"
    content = _TEMPLATE.format(
        profile=profile,
        seed=seed,
        origin=origin_line,
        original=original_cells if original_cells is not None else len(cells),
        shrunk=len(cells),
        cells=rendered,
        branch_cells="\n".join(f"    {cell!r}," for cell in branch_cells),
        name=name,
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path

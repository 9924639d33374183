"""Pinned-seed fuzz regression (auto-generated by repro.fuzz).

Seed: 20
Origin: repro fuzz --profile hazard-heavy (a global store reached through a method call was lost) (config: {'cells': 20, 'branch_cells': 6, 'max_live': 24, 'w_create': 10.0, 'w_mutate': 6.0, 'w_alias': 7.0, 'w_del_rebind': 4.0, 'w_conditional': 5.0, 'w_closure': 6.0, 'w_generator': 1.0, 'w_consume': 1.0, 'w_escape': 2.0, 'w_libsim': 1.0, 'w_helper': 14.0, 'w_hazard': 10.0})
Shrunk: 20 cell(s) -> 3

Regenerate the original program with:
    repro fuzz --profile hazard-heavy --seed 20 --cells 20
"""

from repro.fuzz.oracle import run_cells_oracle

CELLS = [
    'import types\ndef _hz0(n):\n    global w1\n    w1 = [n, n + 1]\n    return n % 7\nhz0 = types.SimpleNamespace(bump=_hz0)',
    'v2 = [hz0.bump(1), 1]',
    'v4 = [hz0.bump(4), 4]',
]


def test_fuzz_seed_20():
    report = run_cells_oracle(CELLS, seed=20)
    assert report.ok, report.describe()

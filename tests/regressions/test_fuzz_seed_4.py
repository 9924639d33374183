"""Pinned-seed fuzz regression (auto-generated by repro.fuzz).

Seed: 4
Origin: repro fuzz --profile hazard-heavy (replay.py: a replayed class kept the replay's scratch namespace as its methods' globals) (config: {'cells': 20, 'branch_cells': 6, 'max_live': 24, 'w_create': 10.0, 'w_mutate': 6.0, 'w_alias': 7.0, 'w_del_rebind': 4.0, 'w_conditional': 5.0, 'w_closure': 6.0, 'w_generator': 1.0, 'w_consume': 1.0, 'w_escape': 2.0, 'w_libsim': 1.0, 'w_helper': 14.0, 'w_hazard': 10.0})
Shrunk: 20 cell(s) -> 5

Regenerate the original program with:
    repro fuzz --profile hazard-heavy --seed 4 --cells 20
"""

from repro.fuzz.oracle import run_cells_oracle

CELLS = [
    'v1 = [0, 0 + 1, 0 + 2]',
    'def uf1(n):\n    global w2\n    w2 = [n, n + 1]\n    return n % 7',
    "v3 = 'text-2-' * (2 % 3 + 1)",
    'class _Hz3:\n    def bump(self, n):\n        global w4\n        w4 = [n, n + 1]\n        return n % 7\nhz3 = _Hz3()',
    "if isinstance(v3, list):\n    v3.insert(0, 4)\nelif isinstance(v3, dict):\n    v3['k4'] = 4\nelif isinstance(v3, set):\n    v3.add(4 % 13)\nelse:\n    v3 = 4",
]

BRANCH_CELLS = [
    "if isinstance(v8, list):\n    v8.extend([20, 20 + 1])\nelif isinstance(v8, dict):\n    v8.setdefault('nested', []).append(20)\nelif isinstance(v8, set):\n    v8.add(20 % 13)\nelse:\n    v8 = 20",
    'if isinstance(v7, (list, dict, set)):\n    v16 = [v7, v11]\nelse:\n    v16 = [v7, 21]',
    'v17 = uf6',
    "v18 = {'ref': v3, 'tag': 23}",
    'v19 = v10',
    'v20 = [hz3.bump(25), 25]',
]


def test_fuzz_seed_4():
    report = run_cells_oracle(CELLS, seed=4, branch_cells=tuple(BRANCH_CELLS))
    assert report.ok, report.describe()

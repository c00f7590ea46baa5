"""Time posr's set-up in a fresh interpreter and print it in seconds.

Set-up is what every workload pays before its first call: importing posr,
loading the claims registry, building every group table the registry names,
and one call into each kernel (which compiles them when numba is active).
Run with ``src`` on PYTHONPATH; ``run.py`` starts it several times per run.
"""

import time

t0 = time.perf_counter()

import numpy as np  # noqa: E402

from posr import catalog, cli, groups, kernels  # noqa: E402,F401
from posr.cayley import Digraph  # noqa: E402

tables = {c.group: groups.group_from_token(c.group) for c in catalog.load_claims() if c.group}
triangle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
kernels.refine_partition(3, *triangle.csr(), np.zeros(3, dtype=np.int64))
kernels.regular_digraph_search(4, 1, 0, 0, kernels.count_combinations(3, 1), 1000)

print(time.perf_counter() - t0)

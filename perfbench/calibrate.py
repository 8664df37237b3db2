"""Machine-speed calibration of the qmonogamy benchmark.

A shared host runs this benchmark at a speed that drifts with the load of
other tenants by up to 2x over seconds to minutes, and steal time does not
show it, so CPU time drifts with wall time.  The workload process therefore
times a fixed kernel between its ops and expresses every time it reports at
the speed at which the kernel takes ``REFERENCE_S``.

The kernel does what the program's hot path does, with numpy alone: two-qubit
marginals of pure states by reshape and matrix product, Wootters' lambda
spectrum by ``eigh`` and ``eigvalsh`` of 4x4 matrices, and a loop of Python
bookkeeping.  Its inputs are fixed, and it never imports qmonogamy, so no
change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# the reference speed; a block took 7-12 ms on a 2-CPU Intel Xeon KVM guest
# (Python 3.11, numpy 2.4, one BLAS thread) as its speed drifted
REFERENCE_S = 0.0100
REPEAT = 14
SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])

_rng = np.random.default_rng(0xCA1B)
_STATES = [v / np.linalg.norm(v) for v in
           (_rng.standard_normal(2**n) + 1j * _rng.standard_normal(2**n) for n in (4, 4, 4, 4, 6, 8, 10))]


def block() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(REPEAT):
        _pass()
    return time.perf_counter() - start


def _pass():
    table = {}
    for v in _STATES:
        m = v.reshape(4, -1)
        rho = m @ m.conj().T
        w, u = np.linalg.eigh(rho)
        root = (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T
        ev = np.linalg.eigvalsh(root @ SIGMA_YY @ rho.conj() @ SIGMA_YY @ root)
        lam = np.sort(np.sqrt(np.clip(ev, 0, None)))[::-1]
        table[len(v)] = float(max(0.0, lam[0] - lam[1:].sum()))
    for i in range(400):
        key = f"C{i % 12}"
        table[key] = table.get(key, 0.0) + i * 0.5

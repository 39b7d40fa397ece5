"""Passes and distance to the bound of the property optimizers.

    PYTHONPATH=<tree>/src python3 tools/ascent_cost.py [n:k ...]

The cases default to 2:2 3:2 4:2 (the ``elicit`` workload's shapes), 4:3
4:4 8:3 8:4 8:8.  For each (n, k) and each of
five states ``random_density(n, rng=s)``, s = 1..5, it runs
``optimize_weighted_basis`` with weights k..1 and ``optimize_eigen_pair``
with 50 restarts at ``rng=0``.  Then, for n = 2-6, 8 and 16 and each of
twenty states ``random_density(n, rng=s)``, s = 0..19, it runs
``optimize_top_eigenvector`` at ``rng=s``.  It prints per optimizer and
case: the calls, the passes of the ascent (one per evaluation of the
whole live stack after the first) summed over the calls and the most in
one call, the restart-passes (the live restarts summed over those
passes), the largest shortfall from the eigenvalue bound, the calls that
stopped on their certificate (a last evaluation at or below
``CERT_TOL``) and the certificate's evaluations over the calls.  Run it
once per tree to compare them; the generator use is fixed, so both trees
see the same starts, and a tree whose optimizers pass no certificate
reads 0 in both of the last columns.  It lists no wall time: a time per
tree, taken in runs minutes apart, moves with a shared machine more than
with the code, so per-call time needs an interleaved A/B of the two
trees in one process, alternating calls.
"""

from __future__ import annotations

import sys

import numpy as np

from qelicit import properties
from qelicit.linalg import eigenvalues_desc, random_density

_ascend = properties._ascend
_live: list[int] = []
_certs: list[float] = []  # the certificate's values in the last call


def _counting_ascend(X0, f, iters, cert=None):
    def g(X):
        _live.append(len(X))
        return f(X)

    def counted(X):
        _certs.append(cert(X))
        return _certs[-1]

    if cert is None:  # also a tree whose _ascend takes no certificate
        return _ascend(X0, g, iters)
    return _ascend(X0, g, iters, counted)


def _run(name, n, k, rho, seed):
    lam = eigenvalues_desc(rho)[:k]
    if name == "weighted_basis":
        w = np.arange(k, 0, -1.0)
        return lambda: properties.optimize_weighted_basis(rho, w, k, rng=0)[1], w @ lam
    if name == "eigen_pair":
        return lambda: properties.optimize_eigen_pair(rho, k, rng=0)[1], lam @ lam
    return lambda: properties.optimize_top_eigenvector(rho, rng=seed)[1], lam[0]


def _row(name, n, k, seeds):
    passes = most = restart_passes = short = certified = evals = 0.0
    for s in seeds:
        call, bound = _run(name, n, k, random_density(n, rng=s), s)
        _live.clear()
        _certs.clear()
        value = call()
        passes += len(_live) - 1
        most = max(most, len(_live) - 1)
        restart_passes += sum(_live[1:])
        certified += bool(_certs) and _certs[-1] <= properties.CERT_TOL
        evals += len(_certs)
        short = max(short, bound - value)
    print(f"{n:<2d} {k:<2d} {name:15s} {len(seeds):5d}  {passes:6.0f}  {most:10.0f}  {restart_passes:14.0f}"
          f"  {short:9.1e}      {certified:5.0f}  {evals:10.0f}")


def main(cases):
    properties._ascend = _counting_ascend
    print("n  k  optimizer       calls  passes  max passes  restart-passes  max shortfall  certified  cert evals")
    for n, k in cases:
        for name in ("weighted_basis", "eigen_pair"):
            _row(name, n, k, range(1, 6))
    for n in (2, 3, 4, 5, 6, 8, 16):
        _row("top_eigenvector", n, 1, range(20))


if __name__ == "__main__":
    main([tuple(map(int, a.split(":"))) for a in sys.argv[1:]] or [(2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (8, 3), (8, 4), (8, 8)])

"""The self-test that ``_native_lib.load()`` runs before it hands out a kernel.

It runs once per cache entry: a passing self-test leaves a stamp beside the
library, and a later process that finds a stamp with its own key neither
runs the self-test nor imports this module.  It lives apart from
``_native_lib`` so that, where no bytecode is cached and the self-test
runs, loading the kernel compiles two small modules instead of one large one.
Compiling a module holds its whole syntax tree, and the kernel loads
after a process has read its data, so that transient sets the peak RSS
of a short run (``scc encode`` and every benchmark workload).
"""

from __future__ import annotations

import numpy as np

from ._native_lib import LOOPS, Kernel
from .core import (Dictionary, HessianDiag, MaxIterationsExceeded, NaturalRateSchedule,
                   SparseCode, _CodeStore, _residual)

# lengths that take the ddot kernel and the kernel's own vector loops (two, four or eight
# doubles wide) through their remainder paths: shorter than a vector at 1, 2 and 3, and a
# remainder of 0 at 16 and 256, 1 at 17 and 7 (every tail of an eight-wide loop) at 23
SELF_TEST_P = (1, 2, 3, 16, 17, 23, 256)
DENSE_TEST_P = (1, 16)  # the dense step's dot and its dgemv route
DGEMM_TEST_P = 16  # and its dgemm route


def _self_test(k: Kernel) -> bool:
    """True if the kernel's bytes equal those of ``LOOPS`` on fixed instances.

    At every p: the per-sample encoder's code and residual for the first
    sample, from zero and from the code with every entry, with one full pass
    and two support passes, and with one support pass alone; the oracle codes
    of the samples, into a store that has to grow, from an epoch that holds
    its own copy of the atoms fixed and passes to a loose tolerance on a
    budget of three passes, in which at p >= 16 the first sample settles
    after a working-set pass and the second runs out partway through its
    working-set passes (so the atoms, the codes up to that sample and whether
    it settled are compared); an epoch over two
    samples, from a one-entry code and from zero, alternately under the
    adaptive rule in sequential order and under the natural rule in reverse
    order; and the objective of codes with every entry, one entry and none.
    At ``DENSE_TEST_P`` also: three dense steps for the first sample and
    code, whose first step is projected and rejected, and whose next two, at
    half the rate, are accepted (at p = 1 the second is projected too); at
    ``DGEMM_TEST_P`` three more for the first two samples, both with the
    first code, whose first step is projected and rejected, and whose next
    two, at half the rate, are accepted (the first of them projected).
    """
    m = 8
    for q, p in enumerate(SELF_TEST_P):
        atoms = _values(p * m, 0.1).reshape(p, m)
        atoms /= np.sqrt((atoms * atoms).sum(axis=0))
        atoms[:, ::3] *= 0.6  # atoms inside the ball as well as on the sphere
        D = Dictionary(atoms)
        x = D.atoms[:, :3] @ np.array([1.0, -0.5, 0.25]) + 0.01 * _values(p, 0.3)
        X = np.asfortranarray(np.column_stack([x, 3.0 * x, -x]))  # 3x: atoms leave the ball
        codes = [SparseCode.from_dense(_values(m, 0.7), prune_tol=0.0),
                 SparseCode(np.array([4]), np.array([-0.8]), m), SparseCode.zero(m)]
        if _outputs(k, D, X, codes, q % 2) != _outputs(LOOPS, D, X, codes, q % 2):
            return False
    return True


def _values(n: int, shift: float) -> np.ndarray:
    """``n`` fixed, irregularly spread values in [-1, 1), from an additive recurrence."""
    return 2.0 * ((0.7548776662466927 * np.arange(1, n + 1) + shift) % 1.0) - 1.0


def _store_bytes(store: _CodeStore) -> list:
    return [store.start.tobytes(), store.length.tobytes(), store.indices[:store.used].tobytes(),
            store.values[:store.used].tobytes()]


def _outputs(k, D, X, codes, natural: bool) -> list:
    """Bytes of what the engine ``k`` computes: four encodes of the first sample, the oracle
    codes of ``X``, an epoch under the rule that ``natural`` picks, the objective of ``codes``
    after it, and at ``DENSE_TEST_P`` the dense steps for the first sample (and two)."""
    m, n = D.m, X.shape[1]
    out = []
    for z in (codes[2], codes[0]):  # cold, and warm from every entry
        for full, passes in ((1, 3), (0, 1)):  # the cheap encoder, and a support pass alone
            r = _residual(D, z, X[:, 0])
            code = k.encode(D, z, r, 0.02, full, passes)
            out += [code.indices.tobytes(), code.values.tobytes(), r.tobytes()]
    # the oracle: passes to tol 0.05, at most 3, into a store that has to grow
    _, oracle = _epoch(k, D, X, np.arange(n), 0.1, 3, _CodeStore(m, n, 0), _CodeStore(m, n, 0),
                       None, 0.05)
    # a training epoch from the other codes, into a store with room for one
    rate = NaturalRateSchedule(0.5, 10.0) if natural else HessianDiag.zeros(m)
    order = np.array([1, 0]) if natural else np.arange(2)
    W, epoch = _epoch(k, D, X[:, 1:], order, 0.02, 3, _CodeStore.of(codes[1:], m),
                      _CodeStore(m, 2, m), rate)
    terms = k.objective(W, _CodeStore.of(codes, m), X, 0.3)
    out += oracle + epoch + [rate.t if natural else rate.diag.tobytes(), terms.tobytes()]
    if D.p in DENSE_TEST_P:
        # one sample, so that numpy's matmul takes its dot, dgemv and plain-loop routes, and
        # two, so that it takes dgemm; the same code twice keeps the first step rejected
        for samples in (1, 2) if D.p == DGEMM_TEST_P else (1,):
            W = D.atoms.copy(order="F")
            Z = _CodeStore.of(codes[:1] * samples, m).dense()
            out += [k.dense(W, Z, X[:, :samples], 3), W.tobytes()]
    return out


def _epoch(k, D, X, order, lam, passes, old, new, rate, tol=0.0):
    """``k.epoch`` on a copy of the atoms of ``D``, so that moving them spoils no other
    run: the copy, and the bytes of its atoms, of ``new`` and whether every visit settled."""
    W = Dictionary(D.atoms)
    try:
        k.epoch(W, X, order, lam, passes, old, new, rate, tol)
        settled = True
    except MaxIterationsExceeded:
        settled = False
    return W, [W.atoms.tobytes(), *_store_bytes(new), settled]

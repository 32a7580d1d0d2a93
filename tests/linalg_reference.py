"""Test references: a partial trace, a collective operator and a direction operator (outside `SpinEnsemble`), and a dense Born table."""

from functools import reduce
from types import SimpleNamespace

import numpy as np

from spinwitness.spin import spin_matrices


def partial_trace_reference(op, dims, keep):
    """Trace out the slots not in keep: permute kept slots to the front, then trace the tail block."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    perm = keep + traced
    tensor = np.asarray(op).reshape(list(dims) * 2)
    tensor = tensor.transpose([*perm, *[n + i for i in perm]])
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_rest = int(np.prod([dims[i] for i in traced]))
    block = tensor.reshape(d_keep, d_rest, d_keep, d_rest)
    return np.einsum("arbr->ab", block)


def collective_reference(spins):
    """Jx, Jy, Jz of sum_n J^(j_n), each one-body `spin_matrices` embedded by kron: any spins, integer total spin too."""
    dims = [round(2 * j + 1) for j in spins]
    total = [0, 0, 0]
    for slot, j in enumerate(spins):
        left, right = np.eye(int(np.prod(dims[:slot]))), np.eye(int(np.prod(dims[slot + 1:])))
        for comp, mat in enumerate(spin_matrices(j)):
            total[comp] = total[comp] + np.kron(np.kron(left, mat), right)
    return SimpleNamespace(Jx=total[0], Jy=total[1], Jz=total[2])


def direction_operator(J, k, K, theta=0.0):
    """The in-plane component cos(a) Jx + sin(a) Jy of a collective J along direction a = 2 pi k/K + theta."""
    a = 2 * np.pi * k / K + theta
    return np.cos(a) * J.Jx + np.sin(a) * J.Jy


def outcome_table_reference(rho, ensemble, theta):
    """Born probability of every product outcome of the one-body J_k^(n), shaped (K, *local_dims).

    Each particle's cos(a_k) Jx + sin(a_k) Jy is eigensolved densely (descending, so outcome o reads
    j - o), and the product basis measures rho directly: no phase diagonal, no shared kernel.
    """
    K = ensemble.K
    rows = []
    for k in range(K):
        a = 2 * np.pi * k / K + theta
        w = reduce(np.kron, [np.linalg.eigh(np.cos(a) * jx + np.sin(a) * jy)[1][:, ::-1]
                             for jx, jy, _ in map(spin_matrices, ensemble.spins)])
        rows.append((w.conj() * (rho @ w)).sum(axis=0).real)
    return np.array(rows).reshape(K, *ensemble.local_dims)

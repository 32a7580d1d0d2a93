"""Reference linear algebra shared by the tests; the package has no partial trace of its own."""

import numpy as np


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

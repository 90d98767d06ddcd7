"""Reference implementations that the fast attribute-view scoring is checked
against; slow by design and used only by the tests."""

import numpy as np

from kgalign.attribute_model import SimilarityMatrix


def brute_force_scores(values_l, values_r, ids_l, ids_r):
    """Quadruple-loop reference: every slot pair, masked by equal ids."""
    n, m, _ = values_l.shape
    n2 = values_r.shape[0]
    out = np.zeros((n, n2))
    for a in range(n):
        for b in range(n2):
            total = 0.0
            for i in range(m):
                for j in range(m):
                    if ids_l[a, i] != -1 and ids_l[a, i] == ids_r[b, j]:
                        total += float(values_l[a, i] @ values_r[b, j])
            out[a, b] = total
    return out


def entity_similarity_attr_dense(values_left, values_right, slots_left, slots_right):
    """Definitional path: materialize all slot-pair products, mask, and sum.

    Memory grows as N * N' * m_slots^2, so this is only for small inputs and
    for cross-checking the grouped fast path.
    """
    sims = np.einsum("mid,njd->mnij", values_left.data, values_right.data)
    ids_l = slots_left.ids[:, None, :, None]
    ids_r = slots_right.ids[None, :, None, :]
    mask = (ids_l == ids_r) & (ids_l != -1)
    return SimilarityMatrix((sims * mask).sum(axis=(2, 3)), "attribute-view")

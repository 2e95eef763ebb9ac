"""Sparse dot product and the factorized tensor-product kernel.

The learner trains on explicit pair features, and :func:`dot` of an
assembled vector with the model's weights is the specification of a
score; prediction computes the same floats through the model's rows of
W, with no pair key built.  :func:`tensor_kernel` is the factorized
kernel between two pairs, kept as a verified library function and test
oracle.  Both are pure and safe for concurrent use.
"""

from __future__ import annotations


def dot(a: dict, b: dict) -> float:
    """Sum over shared keys of the products of values.

    Walks ``a`` in its key order and looks each key up in ``b``, so the
    float sum follows ``a``'s order whatever the sizes of the two.
    """
    total = 0.0
    get = b.get
    for k, v in a.items():
        w = get(k)
        if w is not None:
            total += v * w
    return total


def tensor_kernel(q1: dict, u1: dict, q2: dict, u2: dict) -> float:
    """Kernel between two (query, utterance) pairs of side-local vectors.

    Computed as the product of the side dot products, which equals the
    dot product of the two explicit pair-feature maps.
    """
    return dot(q1, q2) * dot(u1, u2)

import random

import numpy as np

from tensorparse import kernel


# Independent oracle: explicit pair maps and a naive dot, built with
# nothing from the library under test.
def explicit_pairs(qv, uv):
    return {(qt, ut): qval * uval for qt, qval in qv.items() for ut, uval in uv.items()}


def naive_dot(a, b):
    return sum(v * b[k] for k, v in a.items() if k in b)


def random_binary_vec(rng, vocab=50, density=0.3):
    return {f"t{i}": 1.0 for i in range(vocab) if rng.random() < density * rng.random() * 2}


def test_dot_shared_key():
    assert kernel.dot({"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 1.0}) == 1.0


def test_dot_empty():
    assert kernel.dot({"a": 2.0}, {}) == 0.0


def test_dot_values_multiply():
    assert kernel.dot({"a": 2.0}, {"a": 3.0}) == 6.0


def test_dot_symmetric():
    rng = random.Random(3)
    for _ in range(50):
        a = random_binary_vec(rng)
        b = random_binary_vec(rng)
        assert kernel.dot(a, b) == kernel.dot(b, a)


def test_tensor_kernel_worked_example():
    q1, q2 = {"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 1.0}
    u1, u2 = {"x": 1.0}, {"x": 1.0, "y": 1.0}
    assert kernel.tensor_kernel(q1, u1, q2, u2) == 1.0
    assert naive_dot(explicit_pairs(q1, u1), explicit_pairs(q2, u2)) == 1.0


def test_tensor_kernel_disjoint_query_side():
    assert kernel.tensor_kernel({"a": 1.0}, {"x": 1.0}, {"b": 1.0}, {"x": 1.0}) == 0.0


def test_tensor_kernel_self_binary():
    q = {"a": 1.0, "b": 1.0, "c": 1.0}
    u = {"x": 1.0, "y": 1.0}
    assert kernel.tensor_kernel(q, u, q, u) == 6.0


def test_factorization_identity_random():
    rng = random.Random(12345)
    for _ in range(1000):
        q1, u1 = random_binary_vec(rng), random_binary_vec(rng)
        q2, u2 = random_binary_vec(rng), random_binary_vec(rng)
        fast = kernel.tensor_kernel(q1, u1, q2, u2)
        slow = naive_dot(explicit_pairs(q1, u1), explicit_pairs(q2, u2))
        assert abs(fast - slow) <= 1e-9 * (1 + abs(slow))


def test_symmetry_of_pair_kernel():
    rng = random.Random(8)
    for _ in range(100):
        q1, u1 = random_binary_vec(rng), random_binary_vec(rng)
        q2, u2 = random_binary_vec(rng), random_binary_vec(rng)
        assert kernel.tensor_kernel(q1, u1, q2, u2) == kernel.tensor_kernel(
            q2, u2, q1, u1
        )


def test_gram_psd():
    rng = random.Random(99)
    for _ in range(20):
        pairs = [(random_binary_vec(rng), random_binary_vec(rng)) for _ in range(8)]
        gram = np.array(
            [[kernel.tensor_kernel(q1, u1, q2, u2) for q2, u2 in pairs]
             for q1, u1 in pairs]
        )
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


import numpy as np
import pytest
from numpy.linalg import LinAlgError

from cluster_bifurc import continuation, linalg
from cluster_bifurc.linalg import (
    det_sign,
    householder_complement,
    solve,
    squared_norms,
    sym_eigen,
)


def reference_sym_eigen(M):
    """Cyclic Jacobi rotations, largest off-diagonal entry first; eigenvalues ascending."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    scale = np.abs(A).max()
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    if scale == 0.0 or n == 1:
        return np.diag(A).copy(), V
    for _ in range(40 * n * n):
        off = 0.0
        p, q, best = 0, 1, -1.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                m = abs(A[i, j])
                off += 2.0 * m * m
                if m > best:
                    best, p, q = m, i, j
        if np.sqrt(off) <= 1e-13 * scale:
            break
        apq = A[p, q]
        if apq == 0.0:
            break
        tau = (A[q, q] - A[p, p]) / (2.0 * apq)
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau)) if tau >= 0 else -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        for i in range(n):
            if i != p and i != q:
                aip, aiq = A[i, p], A[i, q]
                A[i, p] = A[p, i] = aip * c - aiq * s
                A[i, q] = A[q, i] = aiq * c + aip * s
        A[p, p] -= t * apq
        A[q, q] += t * apq
        A[p, q] = A[q, p] = 0.0
        vp = V[:, p].copy()
        V[:, p] = vp * c - V[:, q] * s
        V[:, q] = V[:, q] * c + vp * s
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def cubic_eigenvalues(M):
    """Roots of the characteristic polynomial of a symmetric 3x3, closed form."""
    a, b, c = M[0, 0], M[1, 1], M[2, 2]
    d, e, f = M[0, 1], M[0, 2], M[1, 2]
    p1 = d * d + e * e + f * f
    q = (a + b + c) / 3.0
    p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    if p == 0.0:
        return np.array([q, q, q])
    B = (M - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(B) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    w1 = q + 2.0 * p * np.cos(phi)
    w3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.sort([w1, w3, 3.0 * q - w1 - w3])


def test_identity_eigenvalues():
    w, V = sym_eigen(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(V @ V.T, np.eye(3))


def test_diagonal_sorted_ascending():
    w, V = sym_eigen(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1.0, 2.0])
    assert np.allclose(V @ np.diag(w) @ V.T, np.diag([2.0, -1.0]))


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_random_eigen_vs_characteristic_cubic():
    rng = np.random.default_rng(3)
    for _ in range(40):
        A = rng.normal(size=(3, 3))
        M = A + A.T
        w, V = sym_eigen(M)
        assert np.max(np.abs(np.sort(w) - cubic_eigenvalues(M))) < 1e-10
        assert np.max(np.abs(V @ np.diag(w) @ V.T - M)) < 1e-12 * max(1.0, np.abs(M).max())


def test_random_reconstruction_up_to_8():
    rng = np.random.default_rng(4)
    for n in range(2, 9):
        A = rng.normal(size=(n, n))
        M = A + A.T
        w, V = sym_eigen(M)
        assert np.max(np.abs(V @ np.diag(w) @ V.T - M)) < 1e-12 * np.abs(M).max()
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-12


def test_solve_is_numpy_everywhere():
    assert solve is np.linalg.solve and continuation.solve is linalg.solve
    x = solve(np.eye(3), [1.0, 0.0, 0.0])
    assert np.allclose(x, [1.0, 0.0, 0.0])


def test_solve_residual_small():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        M = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve(M, b)
        assert np.max(np.abs(M @ x - b)) < 1e-12 * max(1.0, np.abs(b).max())


def test_det_sign_matches_det():
    rng = np.random.default_rng(6)
    for _ in range(30):
        M = rng.normal(size=(5, 5))
        assert det_sign(M) == (1 if np.linalg.det(M) > 0 else -1)


def test_singular_system_raises_and_has_no_sign():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(LinAlgError):
        solve(M, [1.0, 1.0])
    assert det_sign(M) == 0


def test_eigen_matches_jacobi_reference_with_fixed_signs():
    rng = np.random.default_rng(12)
    for n in range(2, 10):
        for _ in range(8):
            A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6)
            M = A + A.T
            w, V = sym_eigen(M)
            w_ref, _ = reference_sym_eigen(M)
            assert np.all(np.diff(w) >= 0.0)
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.abs(M).max()
            for v in V.T:
                assert v[int(np.argmax(np.abs(v)))] > 0.0
    # |v_0| == |v_1| exactly in both eigenvectors: the first entry is the positive one
    _, V = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert V[0, 0] > 0.0 > V[1, 0] and V[0, 1] > 0.0 and V[1, 1] > 0.0


def test_a_kernel_tie_does_not_depend_on_the_last_bit(monkeypatch):
    # the kernel (0, 0, -1, 1)/sqrt(2) of a secondary point on an isosceles
    # branch, exact and with either entry 1 ulp larger or smaller in
    # magnitude, in either sign: all get the exact tie's orientation
    exact = np.array([0.0, 0.0, -1.0, 1.0]) / np.sqrt(2.0)
    kernels = [exact]
    for i in (2, 3):
        for toward in (0.0, np.copysign(np.inf, exact[i])):
            v = exact.copy()
            v[i] = np.nextafter(v[i], toward)
            kernels.append(v)
    oriented = []
    for v in kernels + [-v for v in kernels]:
        monkeypatch.setattr(np.linalg, "eigh", lambda M, v=v: (np.zeros(4), np.column_stack([v, np.eye(4)[:, :3]])))
        oriented.append(sym_eigen(np.eye(4))[1][:, 0])
    assert all(np.array_equal(np.sign(got), [0.0, 0.0, 1.0, -1.0]) for got in oriented)


def test_householder_complement_orthogonality():
    rng = np.random.default_rng(7)
    for n in (3, 4, 6):
        g = rng.normal(size=n)
        B = householder_complement(g)
        assert B.shape == (n, n - 1)
        assert np.max(np.abs(B.T @ g)) < 1e-12 * np.abs(g).max()
        assert np.max(np.abs(B.T @ B - np.eye(n - 1))) < 1e-12
    with pytest.raises(ValueError):
        householder_complement(np.zeros(3))


def _reflector_complement(g):
    """The Householder complement of one vector, written with the 1-d products."""
    nrm = np.sqrt(g @ g)
    v = g.copy()
    v[0] += nrm if g[0] >= 0 else -nrm
    return (np.eye(g.size) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]


def test_squared_norms_and_complements_are_bit_identical_to_the_vector_formulas():
    rng = np.random.default_rng(11)
    for n in (3, 4, 6, 7):
        G = rng.normal(size=(50, n)) * rng.uniform(1e-3, 1e3, size=(50, 1))
        G[::7, 0] = 0.0  # the sign rule's tie
        assert [float(d) for d in squared_norms(G)] == [float(g @ g) for g in G]
        stacked = householder_complement(G)
        assert stacked.shape == (50, n, n - 1)
        for g, B in zip(G, stacked):
            want = _reflector_complement(g)
            assert np.array_equal(B, want) and np.array_equal(householder_complement(g), want)
        assert squared_norms(G[:0]).shape == (0,) and householder_complement(G[:0]).shape == (0, n, n - 1)
        G[3] = 0.0
        with pytest.raises(ValueError):
            householder_complement(G)


import numpy as np
import pytest

from cluster_bifurc.linalg import (
    SingularSystemError,
    det_sign,
    householder_complement,
    lu_factor,
    lu_solve,
    orthonormal_columns,
    solve,
    sym_eigen,
)


def reference_lu_factor(M):
    """Row-at-a-time numpy elimination with the package's pivot rule and singularity test."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    piv = np.arange(n)
    parity = 1
    scale = np.abs(A).max()
    for k in range(n):
        r = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[r, k]) < 1e-14 * max(scale, 1e-300):
            raise SingularSystemError(k, abs(A[r, k]))
        if r != k:
            A[[k, r]] = A[[r, k]]
            piv[[k, r]] = piv[[r, k]]
            parity = -parity
        A[k + 1:, k] /= A[k, k]
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return A, piv, parity


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


def reference_matrices(seed, per_kind):
    """Random, rank-deficient and nearly singular matrices, n = 2..9, scaled 1e-6..1e6.

    The nearly singular ones have a last column dependent on the others up to
    a relative 1e-17..1e-11, straddling the 1e-14 pivot test.  Small-integer
    matrices add exact ties in |a_ik|, where the pivot rule picks the first row.
    """
    rng = np.random.default_rng(seed)
    for n in range(2, 10):
        for kind in ("random", "rank-deficient", "nearly singular", "small integers"):
            for _ in range(per_kind):
                if kind == "random":
                    A = rng.normal(size=(n, n))
                elif kind == "small integers":
                    A = rng.integers(-2, 3, size=(n, n)).astype(float)
                elif kind == "rank-deficient":
                    r = int(rng.integers(1, n))
                    A = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
                else:
                    A = rng.normal(size=(n, n))
                    A[:, -1] = (A[:, :-1] @ rng.normal(size=n - 1)
                                + 10.0 ** rng.uniform(-17, -11) * rng.normal(size=n))
                yield A * 10.0 ** rng.uniform(-6, 6)


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


def test_solve_identity_and_signs():
    x, sign = solve(np.eye(3), [1.0, 0.0, 0.0])
    assert np.allclose(x, [1.0, 0.0, 0.0])
    assert sign == 1
    _, sign = solve(np.diag([1.0, -1.0]), [1.0, 1.0])
    assert sign == -1


def test_solve_residual_small():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        M = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x, _ = solve(M, b)
        assert np.max(np.abs(M @ x - b)) < 1e-12 * max(1.0, np.abs(b).max())


def test_det_sign_matches_det():
    rng = np.random.default_rng(6)
    for _ in range(30):
        M = rng.normal(size=(5, 5))
        assert det_sign(M) == (1 if np.linalg.det(M) > 0 else -1)


def test_singular_reports_pivot():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError) as err:
        solve(M, [1.0, 1.0])
    assert err.value.pivot_index == 1
    assert det_sign(M) == 0


def test_lu_matches_reference_bit_for_bit():
    singular = factored = 0
    for M in reference_matrices(11, 40):
        try:
            ref = reference_lu_factor(M)
        except SingularSystemError as err:
            with pytest.raises(SingularSystemError) as got:
                lu_factor(M)
            assert (got.value.pivot_index, got.value.pivot) == (err.pivot_index, err.pivot)
            assert det_sign(M) == 0
            singular += 1
            continue
        LU, piv, parity = lu_factor(M)
        assert np.array_equal(LU, ref[0]) and np.array_equal(piv, ref[1]) and parity == ref[2]
        ref_sign = ref[2] * (-1) ** int(np.sum(np.diag(ref[0]) < 0))
        assert det_sign(M) == ref_sign
        b = np.arange(M.shape[0], dtype=float)
        x, sign = solve(M, b)
        assert sign == ref_sign
        assert np.array_equal(x, lu_solve(LU, piv, b))
        factored += 1
    assert singular > 400 and factored > 400  # both decisions are exercised


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


def test_orthonormal_columns_of_projector():
    P = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]])
    Z = orthonormal_columns(P)
    assert Z.shape == (4, 3)
    assert np.max(np.abs(Z.T @ Z - np.eye(3))) < 1e-12
    assert np.max(np.abs(P @ Z - Z)) < 1e-12

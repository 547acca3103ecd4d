"""The numpy kernel of ddwave._lapack against LAPACK's own zgbsv and zpbtrf.

Both kernels take the same stores. Where numpy bundles no banded LAPACK,
the references are np.linalg.solve and np.linalg.cholesky of the dense
matrices.
"""

import numpy as np
import pytest

from ddwave import _lapack

NUMPY = _lapack._NumpyBanded()
LAPACK = _lapack.banded() if _lapack.banded().path is not None else None


def _cplx(rng, *shape):
    return rng.standard_normal((*shape, 2)) @ np.array([1.0, 1.0j])


def _band(rng, B, N, lower, upper, small_diagonal=False):
    """B random complex (N, N) matrices with `lower` sub- and `upper`
    superdiagonals; a small diagonal (1e-3 of the rest) forces row swaps."""
    A = _cplx(rng, B, N, N)
    i, j = np.indices((N, N))
    A[:, (i - j > lower) | (j - i > upper)] = 0.0
    if small_diagonal:
        A[:, i == j] *= 1e-3
    return A


def _gb_store(A, w):
    """gbsv's store of A's band, kl = ku = w: A[i, j] at [:, j, 2w + i - j]."""
    N = A.shape[-1]
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(N), np.arange(N))) <= w)
    ab = np.zeros((len(A), N, 3 * w + 1), dtype=complex)
    ab[:, j, 2 * w + i - j] = A[:, i, j]
    return ab


def _pb_store(M, w):
    """pbtrf's lower store of M's band: M[j + t, j] at [:, j, t]."""
    N = M.shape[-1]
    j, t = (x.ravel() for x in np.indices((N, w + 1)))
    j, t = j[j + t < N], t[j + t < N]
    S = np.zeros((len(M), N, w + 1), dtype=complex)
    S[:, j, t] = M[:, j + t, j]
    return S


def _close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("N", [1, 2, 7, 37, 64, 97])
@pytest.mark.parametrize("w", [0, 1, 6])
@pytest.mark.parametrize("small_diagonal", [False, True])
def test_numpy_gbsv_matches_lapack(N, w, small_diagonal):
    """Three frames with two right-hand sides each: the solutions agree to
    1e-12 relative and, against LAPACK, so do the factored stores. A small
    diagonal makes partial pivoting swap rows, which fills U's extra w
    superdiagonals wherever N leaves room for them."""
    rng = np.random.default_rng(100 * N + 10 * w + small_diagonal)
    A = _band(rng, 3, N, w, w, small_diagonal)
    b = _cplx(rng, 3, 2, N)
    ab, x = _gb_store(A, w), b.copy()
    assert NUMPY.gbsv(ab, w, w, x).tolist() == [0, 0, 0]
    if LAPACK:
        want_ab, want = _gb_store(A, w), b.copy()
        assert LAPACK.gbsv(want_ab, w, w, want).tolist() == [0, 0, 0]
        assert _close(ab, want_ab)
    else:
        want = np.linalg.solve(A, b.swapaxes(1, 2)).swapaxes(1, 2)
    assert _close(x, want)
    if small_diagonal and 0 < w < N - 1:
        assert np.any(ab[:, :, :w])


@pytest.mark.parametrize("N", [1, 2, 7, 37, 64, 97])
@pytest.mark.parametrize("w", [0, 1, 6])
def test_numpy_pbtrf_matches_lapack(N, w):
    """The Cholesky factor of three Hermitian positive definite bands
    L L^H + I, L lower with w subdiagonals, agrees to 1e-12 relative."""
    rng = np.random.default_rng(10 * N + w)
    L = _band(rng, 3, N, w, 0)
    M = L @ L.conj().swapaxes(1, 2) + np.eye(N)
    S = _pb_store(M, w)
    assert NUMPY.pbtrf(S).tolist() == [0, 0, 0]
    if LAPACK:
        want = _pb_store(M, w)
        assert LAPACK.pbtrf(want).tolist() == [0, 0, 0]
    else:
        want = _pb_store(np.linalg.cholesky(M), w)
    assert _close(S, want)


def test_numpy_kernels_report_lapacks_info():
    """LAPACK's 1-based info: gbsv's on bands with a zero row and with a
    zero column, exactly singular, and pbtrf's on a band that is not
    positive definite, each beside a frame that factors."""
    rng = np.random.default_rng(5)
    N, w = 37, 6
    A = _band(rng, 3, N, w, w)
    A[0, 20] = 0.0
    A[1, :, 11] = 0.0
    b = _cplx(rng, 3, 1, N)
    info = NUMPY.gbsv(_gb_store(A, w), w, w, b.copy())
    if LAPACK:
        assert info.tolist() == LAPACK.gbsv(_gb_store(A, w), w, w, b.copy()).tolist()
    assert info[0] > 0 and info[1] > 0 and info[2] == 0

    L = _band(rng, 3, N, w, 0)
    M = L @ L.conj().swapaxes(1, 2) + np.eye(N)
    M[:2] -= np.eye(N) * np.array([4.0, 40.0])[:, None, None]  # indefinite
    info = NUMPY.pbtrf(_pb_store(M, w))
    if LAPACK:
        assert info.tolist() == LAPACK.pbtrf(_pb_store(M, w)).tolist()

    def first_failing_minor(m):
        for k in range(1, N + 1):
            try:
                np.linalg.cholesky(m[:k, :k])
            except np.linalg.LinAlgError:
                return k
        return 0

    assert info.tolist() == [first_failing_minor(m) for m in M]
    assert info[0] > 0 and info[1] > 0 and info[2] == 0

"""LAPACK's banded LU solve and banded Cholesky, on a stack of frames.

numpy's wheels bundle OpenBLAS, its LAPACK included, in numpy.libs/ next to
the numpy package (Linux, Windows) or in numpy/.dylibs/ (macOS), under ILP64
names with a scipy_ prefix. banded() binds zgbsv and zpbtrf from it through
ctypes on first use. Any other numpy build gets _NumpyBanded, which runs the
same routines' own steps (LAPACK Users' Guide, 3rd ed.: xGBTF2 and xGBTRS
for zgbsv, xPBTF2 for zpbtrf below its block size) on the same stores, one
column at a time for all frames of a stack. Both return LAPACK's info.
"""

from __future__ import annotations

import contextlib
import ctypes
import pathlib
from functools import lru_cache

import numpy as np


def _check_stack(name: str, a: np.ndarray, shape: tuple) -> None:
    """Raise ValueError unless a is a writable C-contiguous complex128 stack of shape `shape`."""
    if a.shape != shape or a.dtype != np.complex128 or not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a writable C-contiguous complex128 array of shape {shape}, "
                         f"got {a.dtype} {a.shape}")


class _Banded:
    """zgbsv and zpbtrf of one library, each called once per frame of a stack."""

    def __init__(self, lib: ctypes.CDLL, path: pathlib.Path):
        self.path = path
        self._gbsv, self._pbtrf = lib.scipy_zgbsv_64_, lib.scipy_zpbtrf_64_
        self._gbsv.argtypes = [ctypes.c_void_p] * 10
        self._pbtrf.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 5 + [ctypes.c_size_t]
        self._gbsv.restype = self._pbtrf.restype = None
        self._threads = None  # OpenBLAS's thread count: (get, set), where the library exports them
        with contextlib.suppress(AttributeError):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            self._threads = get, put

    @contextlib.contextmanager
    def one_thread(self):
        """Run this OpenBLAS, numpy's own, on one thread inside the block and
        restore the caller's thread count after it. Yields whether it could."""
        if self._threads is None:
            yield False
            return
        get, put = self._threads
        before = get()
        put(1)
        try:
            yield True
        finally:
            put(before)

    def gbsv(self, ab: np.ndarray, kl: int, ku: int, b: np.ndarray) -> np.ndarray:
        """Solve each frame's system in place by banded LU with partial
        pivoting: ab (B, N, 2 kl + ku + 1) holds each frame's band in LAPACK's
        column-major store (row kl + ku + i - j of column j: A[i, j]), b
        (B, nrhs, N) its right-hand-side columns, which become the solution.
        Returns each frame's info, nonzero where U has an exact zero pivot."""
        B, N, ldab = ab.shape
        _check_stack("ab", ab, (B, N, 2 * kl + ku + 1))
        _check_stack("b", b, (B, b.shape[1], N))
        ints = np.array([N, kl, ku, b.shape[1], ldab], dtype=np.int64)
        ipiv, info = np.empty(max(N, 1), dtype=np.int64), np.zeros(B, dtype=np.int64)
        p, piv, i0 = ints.ctypes.data, ipiv.ctypes.data, info.ctypes.data
        a0, b0, sa, sb = ab.ctypes.data, b.ctypes.data, ab.strides[0], b.strides[0]
        for f in range(B):
            self._gbsv(p, p + 8, p + 16, p + 24, a0 + f * sa, p + 32, piv, b0 + f * sb, p, i0 + 8 * f)
        return info

    def pbtrf(self, ab: np.ndarray) -> np.ndarray:
        """Factor each frame's Hermitian band in place by Cholesky: ab (B, N,
        kd + 1) holds A[j + t, j] at [:, j, t], LAPACK's lower band store.
        Returns each frame's info, nonzero past a nonpositive pivot."""
        B, N, ldab = ab.shape
        _check_stack("ab", ab, (B, N, ldab))
        ints = np.array([N, ldab - 1, ldab], dtype=np.int64)
        info = np.zeros(B, dtype=np.int64)
        p, a0, i0, sa = ints.ctypes.data, ab.ctypes.data, info.ctypes.data, ab.strides[0]
        for f in range(B):
            self._pbtrf(b"L", p, p + 8, a0 + f * sa, p + 16, i0 + 8 * f, 1)
        return info


class _NumpyBanded:
    """_Banded's two routines in numpy: LAPACK's unblocked steps on its
    stores, each step on all frames of a stack at once. Where info is
    nonzero, ab and b hold no factor or solution. Every complex product is
    formed out of place: numpy computes an in-place product of a single
    entry in a scalar loop that rounds otherwise than its vector loop, and
    a frame's bits must not depend on how many frames share its stack."""

    path = None

    @contextlib.contextmanager
    def one_thread(self):
        """No OpenBLAS of numpy's to pin: yields False and changes nothing."""
        yield False

    def gbsv(self, ab: np.ndarray, kl: int, ku: int, b: np.ndarray) -> np.ndarray:
        """_Banded.gbsv by zgbtf2's column loop, then zgbtrs's two sweeps."""
        B, N, ldab = ab.shape
        _check_stack("ab", ab, (B, N, 2 * kl + ku + 1))
        _check_stack("b", b, (B, b.shape[1], N))
        kv, frames, item = kl + ku, np.arange(B), ab.itemsize
        ipiv = np.empty((B, N), dtype=np.intp)
        ab[..., :kl] = 0.0  # the fill-in rows, which zgbtf2 zeroes before their first use
        with np.errstate(all="ignore"):
            for j in range(N):
                # rows j..j + km of columns j..j + kc: A[j + a, j + t] sits at
                # ab[:, j + t, kv + a - t], entry j ldab + kv + a + t (ldab - 1) of a frame
                km, kc = min(kl, N - 1 - j), min(kv, N - 1 - j)
                win = np.ndarray((B, km + 1, kc + 1), ab.dtype, ab, (j * ldab + kv) * item,
                                 (ab.strides[0], item, (ldab - 1) * item))
                col = win[:, :, 0]
                p = ipiv[:, j] = (np.abs(col.real) + np.abs(col.imag)).argmax(axis=1)  # izamax's first
                top = win[:, 0].copy()
                win[:, 0] = win[frames, p]
                win[frames, p] = top
                pivot = win[:, 0, 0]
                # a zero pivot's column is zero and stays so, scaled by 1 instead; past the
                # last column a pivot row reaches (zgbtf2's JU), the update subtracts zeros
                col[:, 1:] = col[:, 1:] * (1.0 / (pivot + (pivot == 0)))[:, None]
                win[:, 1:, 1:] -= col[:, 1:, None] * win[:, None, 0, 1:]
            info = _first(ab[:, :, kv] == 0)  # U keeps each step's pivot on its diagonal
            for j in range(N - 1):  # L: row j's interchange, then its multipliers
                lm, p = min(kl, N - 1 - j), j + ipiv[:, j]
                top = b[:, :, j].copy()
                b[:, :, j] = b[frames, :, p]
                b[frames, :, p] = top
                b[:, :, j + 1 : j + lm + 1] -= b[:, :, j, None] * ab[:, None, j, kv + 1 : kv + lm + 1]
            for j in range(N - 1, -1, -1):  # U, column by column (ztbsv)
                i0 = max(0, j - kv)
                b[:, :, j] = b[:, :, j] / ab[:, None, j, kv]
                b[:, :, i0:j] -= b[:, :, j, None] * ab[:, None, j, kv - j + i0 : kv]
        return info

    def pbtrf(self, ab: np.ndarray) -> np.ndarray:
        """_Banded.pbtrf by zpbtf2's column loop: each pivot's root scales its
        column through its reciprocal, and zher updates the lower triangle
        of the trailing block."""
        B, N, ldab = ab.shape
        _check_stack("ab", ab, (B, N, ldab))
        kd, flat = ldab - 1, ab.reshape(B, -1)
        pivots = np.empty((B, N))
        s, t = np.tril_indices(kd)
        dst = (t + 1) * kd + s + 1  # A[j + 1 + s, j + 1 + t] = ab[:, j + 1 + t, s - t] at flat j ldab + dst
        with np.errstate(all="ignore"):
            for j in range(N):
                pivots[:, j] = ab[:, j, 0].real
                root = ab[:, j, 0] = np.sqrt(pivots[:, j])
                kn = min(kd, N - 1 - j)
                col = ab[:, j, 1 : kn + 1] = ab[:, j, 1 : kn + 1] * (1.0 / root)[:, None]
                k = slice(None) if kn == kd else s < kn
                flat[:, j * ldab + dst[k]] -= col[:, s[k]] * col[:, t[k]].conj()
        return _first(pivots <= 0)  # NaN passes, as in zpbtf2


def _first(failed: np.ndarray) -> np.ndarray:
    """LAPACK's info from a (B, N) stack of failed steps: each frame's first, 1-based, or 0."""
    return np.where(failed.any(axis=1), failed.argmax(axis=1) + 1, 0)


@lru_cache(maxsize=1)
def banded() -> _Banded | _NumpyBanded:
    """The bound routines of numpy's bundled OpenBLAS, or their numpy steps if it has none."""
    root = pathlib.Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            return _Banded(ctypes.CDLL(str(path)), path)
        except (OSError, AttributeError):
            continue
    return _NumpyBanded()

"""LAPACK's banded LU solve and banded Cholesky, from numpy's own OpenBLAS.

numpy's wheels bundle OpenBLAS, its LAPACK included, in numpy.libs/ next to
the numpy package (Linux, Windows) or in numpy/.dylibs/ (macOS), under ILP64
names with a scipy_ prefix. banded() binds zgbsv and zpbtrf from it through
ctypes on first use and returns None for any other numpy build, whose
callers run their numpy kernels instead.
"""

from __future__ import annotations

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


@lru_cache(maxsize=1)
def banded() -> _Banded | None:
    """The bound routines of numpy's bundled OpenBLAS, or None if it has none."""
    root = pathlib.Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            return _Banded(ctypes.CDLL(str(path)), path)
        except (OSError, AttributeError):
            continue
    return None

"""Diagonal factors shared by the modems and the channel operator.

The waveform transforms and the single-path channel operator are products of
FFTs, cyclic shifts and diagonals. This module holds the diagonals: chirp
phases, Doppler phases and cyclic-prefix phase entries, each a length-N
complex128 vector, plus the prefix phase rules. No N x N matrix is built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZeroPhase:
    """Cyclic-prefix phase rule that is identically zero (plain CP copy)."""

    def __call__(self, n_prime):
        return np.zeros_like(np.asarray(n_prime, dtype=float))


@dataclass(frozen=True)
class AfdmChirpPhase:
    """Chirp-periodic prefix phase, phi(n') = c1 * (N^2 + 2*N*n') in cycles."""

    c1: float
    N: int

    def __call__(self, n_prime):
        n_prime = np.asarray(n_prime, dtype=float)
        return self.c1 * (self.N**2 + 2.0 * self.N * n_prime)


def chirp_phases(N: int, c: float) -> np.ndarray:
    """Diagonal of the chirp matrix: exp(-j2pi*c*n^2) for n = 0..N-1."""
    if N < 1:
        raise ValueError(f"chirp size must be >= 1, got {N}")
    n = np.arange(N)
    return np.exp(-2j * np.pi * c * n.astype(float) ** 2)


def doppler_phases(N: int, f) -> np.ndarray:
    """Diagonal of the Doppler matrix: exp(+j2pi*f*n/N) for n = 0..N-1.

    The + sign follows the time-domain sample relation r[n] ~ e^{+j2pi f n/N};
    all support-shift rules downstream inherit this convention. An array of
    Dopplers gives one diagonal per entry, shape f.shape + (N,).
    """
    if N < 1:
        raise ValueError(f"size must be >= 1, got {N}")
    n = np.arange(N)
    return np.exp(2j * np.pi * np.asarray(f, dtype=float)[..., None] * n / N)


def cp_phase_entries(N: int, ell: int, phase) -> np.ndarray:
    """Diagonal of the delayed-CP phase matrix for a path delay ell.

    Entries 0..ell-1 are exp(-j2pi * phi(ell - n)) and the remaining N - ell
    entries are 1; phase maps an integer offset to cycles (ZeroPhase or
    AfdmChirpPhase).
    """
    if not 0 <= ell < N:
        raise ValueError(f"delay must satisfy 0 <= ell < N, got ell={ell}, N={N}")
    d = np.ones(N, dtype=complex)
    if ell > 0:
        offsets = ell - np.arange(ell)  # ell, ell-1, ..., 1
        d[:ell] = np.exp(-2j * np.pi * np.asarray(phase(offsets), dtype=float))
    return d

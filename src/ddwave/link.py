"""Communication-side measurement: constellations, AWGN, equalizers, BER.

Both equalizers run on the time-domain channel H, never on the symbol-domain
G = T_rx . H . T_tx: every modem has T_tx = T_rx^H with T_rx unitary, so ZF is
G^{-1} y = demodulate(H^{-1} r) and LMMSE is demodulate(H^H (H H^H + s2 I)^{-1} r)
for the CP-stripped received block r. H has only ell_max + 1 populated cyclic
diagonals. LMMSE forms the 2 ell_max + 1 cyclic diagonals of H H^H + s2 I;
after a fold permutation they are block tridiagonal, and block cyclic
reduction solves them with about log2(nb) batched solves for nb blocks of
m rows (m at least the folded half-bandwidth and at least 8): O(N m^2), so
linear in N. ZF solves the folded dense H in O(N^3), behind the same guard
as the symbol-domain solve it replaces: it refuses when cond(H) = cond(G)
exceeds 1e12, in three stages. Weyl's bound on the diagonals' magnitudes
certifies cond(H) <= about 1e6 in O(N ell_max) when one delay outweighs the
others; a Cholesky of H H^H - t I, with t a rounding-error margin, certifies
the same bound for a frame it does not clear; only a frame neither clears
runs the exact np.linalg.cond test, so every frame is accepted or refused
as the SVD alone would decide.

_draw_frames writes the transmitted frame once: each frame draws channel,
bits and noise from its own RNG substream, and a chunk of about 2^16 / N^2
frames runs the transmit chain and the channel as (B, N) stacks. BER frames
and the `sense` trials (sensing._sense_trials) both come from it, in the
same chunks. The public single-block functions call the same stacked code
with B = 1. ZF is the exception: its guard decides frame by frame, so each
frame of a chunk goes through the public equalize_zf, and a refusal raises
from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelRealization,
    _apply_samples,
    _draw_paths,
    _realization,
    _stack_diagonals,
    delay_diagonals,
    doppler_phases,
)
from .modem import OtfsSpec, WaveformSpec, _papr_db, demodulate, modulate, prepend_cp


class SingularChannelError(ValueError):
    """Zero-forcing asked to invert a numerically singular channel."""


# Gray-coded PAM-4 levels indexed by the 2-bit label value
_PAM4_GRAY = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy symbol set with a Gray bit labelling."""

    name: str
    points: tuple[complex, ...]  # indexed by the integer value of the bit label
    bits_per_symbol: int

    @staticmethod
    def qpsk() -> "Constellation":
        pts = []
        for label in range(4):
            b0, b1 = (label >> 1) & 1, label & 1
            pts.append(((1 - 2 * b0) + 1j * (1 - 2 * b1)) / np.sqrt(2.0))
        return Constellation("QPSK", tuple(pts), 2)

    @staticmethod
    def qam16() -> "Constellation":
        pts = []
        for label in range(16):
            i_bits, q_bits = (label >> 2) & 0b11, label & 0b11
            pts.append((_PAM4_GRAY[i_bits] + 1j * _PAM4_GRAY[q_bits]) / np.sqrt(10.0))
        return Constellation("16QAM", tuple(pts), 4)

    @staticmethod
    def by_name(name: str) -> "Constellation":
        key = name.strip().lower()
        if key == "qpsk":
            return Constellation.qpsk()
        if key in ("16qam", "qam16"):
            return Constellation.qam16()
        raise ValueError(f"unknown constellation {name!r}")


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Pack bits (MSB first per symbol) into constellation points."""
    bits = np.asarray(bits, dtype=int)
    bps = constellation.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = bits.reshape(-1, bps) @ weights
    return np.asarray(constellation.points)[labels]


def demap_symbols(x_hat: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard nearest-point demapping back to bits."""
    x_hat = np.asarray(x_hat)
    pts = np.asarray(constellation.points)
    labels = np.argmin(np.abs(x_hat[:, None] - pts[None, :]), axis=1)
    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).reshape(-1)


def _check_snr(snr_db: float) -> None:
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be a number of dB or +inf, got {snr_db}")


def add_awgn(r: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise at variance 10^(-snr/10) per sample.

    snr_db = +inf means no noise (signal power is unit by the unitary chain);
    NaN and -inf raise ValueError.
    """
    r = np.asarray(r)
    _check_snr(snr_db)
    if snr_db == np.inf:
        return r.copy()
    return r + _noise(rng.standard_normal((r.size, 2)), snr_db).reshape(r.shape)


def _noise_var(snr_db: float) -> float:
    """Noise variance per sample at snr_db; 0 at snr_db = +inf."""
    return 0.0 if snr_db == np.inf else 10.0 ** (-snr_db / 10.0)


def _noise(normals: np.ndarray, snr_db: float) -> np.ndarray:
    """Circular complex Gaussian samples from (..., 2) standard normal pairs."""
    return normals @ np.array([1.0, 1.0j]) * np.sqrt(_noise_var(snr_db) / 2.0)


def _fold(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold permutation 0, N-1, 1, N-2, ... and its inverse.

    Re-ordered by it, a matrix whose nonzeros lie within cyclic distance b of
    the diagonal has a plain (non-cyclic) band of half-width at most 2b + 1.
    """
    perm = np.empty(N, dtype=np.intp)
    perm[0::2] = np.arange((N + 1) // 2)
    perm[1::2] = np.arange(N - 1, (N - 1) // 2, -1)
    inv = np.empty(N, dtype=np.intp)
    inv[perm] = np.arange(N)
    return perm, inv


@dataclass(frozen=True)
class _BandLayout:
    """Where the diagonals of A = H H^H + s2 I go in the folded A.

    Folded A is block tridiagonal with nb blocks of m rows (m at least its
    half-bandwidth), padded by an identity to nb * m rows. Block row i is
    stored as one (m, width) frame [A_ii | rhs_i | A_{i,i-1} | A_{i,i+1}];
    with nb = 1 it is [A | rhs]. Band entry k goes to entry band_dst[k] of
    the flattened (nb, m, width) frames and to entry dense_dst[k] of the
    whole folded A, flattened. Sample n of a block sits at vec[n] of the
    flattened frames, in the rhs column of folded row inv[n].
    """

    perm: np.ndarray
    # A's diagonal at offset o holds A[n, (n - o) mod N] = sum over pairs e - e' = o
    # of d[e][n] * conj(d[e'])[(n - o) mod N]: pair (e, e') reads d[e] and
    # conj(d).ravel()[pair_src[e, e']], and sums into the rows of
    # pair_slot[:, e * (ell_max + 1) + e'] (offsets mod N)
    pair_src: np.ndarray
    pair_slot: np.ndarray  # (offsets mod N, pairs) 0/1 matrix
    slot0: int  # row of the main diagonal
    dense_dst: np.ndarray
    nb: int
    m: int
    width: int
    band_dst: np.ndarray
    pad_dst: np.ndarray
    vec: np.ndarray
    # H^H z: entry k sums conj(d[e]) * z at (k + e) mod N over e, read from the
    # flattened (ell_max + 1, N) product at adjoint_src[:, k]
    adjoint_src: np.ndarray


# The block rule, from timings of _lmmse_solve on a 2-vCPU box with one BLAS
# thread (CHANGES.md has the table). Cyclic reduction makes about a dozen
# numpy calls per level, ceil(log2(nb)) levels, and one LAPACK solve with
# 2m + 1 right-hand sides per block. At m = 8 that solve costs a few us, and
# several times more per row from m = 10 on, so blocks have _BLOCK_ROWS rows
# unless the band is wider. Up to N = _ONE_BLOCK_ROWS the reduction's
# per-level calls cost more than the N^3 LU, so A is one dense block there.
# The rule reads N alone: a frame's estimate must not depend on how many
# frames share its stack.
_BLOCK_ROWS = 8
_ONE_BLOCK_ROWS = 96


@lru_cache(maxsize=32)
def _band_layout(N: int, ell_max: int) -> _BandLayout:
    """The layout of A: one dense block while N <= 96, else
    ceil(N / max(half-bandwidth, 8)) blocks of at least the half-bandwidth."""
    perm, inv = _fold(N)
    offsets = sorted({o % N for o in range(-ell_max, ell_max + 1)})
    n = np.arange(N)
    e, e2 = (g.ravel() for g in np.indices((ell_max + 1, ell_max + 1)))
    pair_slot = np.zeros((len(offsets), e.size))
    pair_slot[np.searchsorted(offsets, (e - e2) % N), np.arange(e.size)] = 1.0
    # band entry k: row n = k % N of diagonal k // N, at folded (i[k], j[k])
    i = np.tile(inv, len(offsets))
    j = inv[(n[None, :] - np.asarray(offsets)[:, None]) % N].ravel()
    half_width = int(np.max(np.abs(i - j)))
    nb = 1 if N <= _ONE_BLOCK_ROWS else -(-N // max(half_width, _BLOCK_ROWS))
    m = max(-(-N // nb), half_width)
    width = m + 1 if nb == 1 else 3 * m + 1
    bi, bj = i // m, j // m
    col = j % m + np.select([bj == bi, bj < bi], [0, m + 1], 2 * m + 1)
    pad = np.arange(N, nb * m)
    return _BandLayout(
        perm=perm,
        pair_src=(e2[:, None] * N + (n - (e - e2)[:, None]) % N).reshape(ell_max + 1, -1, N),
        pair_slot=pair_slot,
        slot0=offsets.index(0),
        dense_dst=i * N + j,
        nb=nb,
        m=m,
        width=width,
        band_dst=i * width + col,
        pad_dst=pad * width + pad % m,
        vec=inv * width + m,
        adjoint_src=np.arange(ell_max + 1)[:, None] * N + (n + np.arange(ell_max + 1)[:, None]) % N,
    )


def _gram(d: np.ndarray, lay: _BandLayout) -> np.ndarray:
    """The cyclic diagonals of H H^H, (B, offsets, N), from a (B, ell_max + 1, N) stack of H's."""
    B, E, N = d.shape
    # the products overwrite the gathered conj(d), so a stack needs one
    # (B, E, E, N) temporary, not three (256 KiB each per frame at N = 1024)
    g = d.conj().reshape(B, -1)[:, lay.pair_src]
    np.multiply(d[:, :, None], g, out=g)
    return lay.pair_slot @ g.reshape(B, E * E, N)


# The ZF guard refuses H when cond(H) > 1e12. An SVD decides that exactly but
# costs more than the solve, so two certificates of cond(H) <= K = sqrt(2 / tau_N),
# tau_N = (4N + 64) u, u = 2^-53, run first; an SVD of such an H cannot report
# a condition number near 1e12, so the exact test accepts every certified
# frame, and only a frame that neither clears gets it.
#
# The first, _weyl_certified, needs no factorization. H = sum_ell D_ell Pi^ell
# for the diagonal D_ell of d[ell] and the cyclic shift Pi, so with
# a_ell = max_n |d[ell][n]| and b_ell = min_n |d[ell][n]|, sigma_max(H) <= S =
# sum_ell a_ell, and by Weyl's inequality sigma_min(X + Y) >= sigma_min(X) - ||Y||_2
# (Weyl, Math. Ann. 71, 1912) sigma_min(H) >= b_0 - r for any ell0 and the
# sum r of the other a_ell: cond(H) <= S / (b_0 - r) when b_0 > r. It clears a
# channel whose strongest delay outweighs the others, in O(N ell_max). With
# c = 1 - 2 K tau_N it tests a_0 + (c K + 1) r <= c K b_0, ell0 the delay of
# the largest a_ell + b_ell; that is S <= c K (b_0 - r) without a subtraction:
#   - its quantities are sums and products of nonnegative floats, each |d|
#     off by 2u at most and r a sum of at most N terms, so either side is off
#     by less than (N + 8) u < tau_N / 4 relatively, and the exact
#     S / (b_0 - r) is at most (1 - K tau_N) K;
#   - an SVD whose singular values are off by at most N u ||H||_2 <= tau_N S / 4
#     (a backward stable one, with LAPACK's modest constant) then reports
#     cond(H) <= (1 - K tau_N) K (1 + tau_N / 4) / (1 - K tau_N / 4) <= K.
# It assumes no underflow or overflow: b_0 must exceed 1e-200 and S stay below 1e200.
#
# The second (Rump, "Verification of positive definiteness," BIT 46, 2006)
# is a Cholesky of H H^H - t I. Let A = H H^H and gamma_k = k u / (1 - k u);
# complex arithmetic adds two units per inner product (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., §3.6). _certified factors
# M = fl(A) - t I with t = tau_N tr(A):
#   - each entry of fl(A) sums at most N products, so fl(A) - A is at most
#     gamma_{N+2} |H| |H|^H entrywise and gamma_{N+2} ||H||_F^2 = gamma_{N+2} tr(A)
#     in 2-norm;
#   - subtracting t rounds each diagonal entry once: u (A_ii + t);
#   - if the Cholesky of M runs to completion, R^H R = M + dM with
#     |dM| <= gamma_{N+3} |R^H| |R| (§10.1, Theorem 10.3), and
#     || |R^H| |R| ||_2 <= ||R||_F^2 <= tr(M) / (1 - gamma_{N+3}).
# So R^H R = A - t I + E with ||E||_2 <= (2N + 6) u tr(A) to first order.
# tau_N is more than twice that, with room for the second-order terms and
# the rounding of tr(A), so R^H R >= 0 gives lambda_min(A) >= t / 2 and
# cond(H)^2 = cond(A) <= tr(A) / lambda_min(A) <= 2 / tau_N: K = 7.5e6 at
# N = 64 and less at larger N. The bounds assume no underflow or overflow:
# frames whose trace lies outside (1e-200, 1e200) get no certificate.
def _tau(N: int) -> float:
    """tau_N = (4N + 64) u of the certificates above."""
    return (4 * N + 64) * 2.0**-53


def _weyl_certified(d: np.ndarray) -> bool:
    """True if Weyl's bound above proves cond(H) <= sqrt(2 / tau_N) for H's
    (ell_max + 1, N) diagonals d, with no factorization."""
    tau = _tau(d.shape[1])
    K = math.sqrt(2.0 / tau)
    cK = (1.0 - 2.0 * K * tau) * K
    mags = np.abs(d)
    # ell_max + 1 values each: Python floats cost less than more numpy calls
    a, b = mags.max(axis=1).tolist(), mags.min(axis=1).tolist()
    l0 = max(range(len(a)), key=lambda ell: a[ell] + b[ell])
    r = sum(a[:l0] + a[l0 + 1 :])
    return b[l0] > 1e-200 and a[l0] + r < 1e200 and a[l0] + (cK + 1.0) * r <= cK * b[l0]


def _certified(d: np.ndarray) -> bool:
    """True if the Cholesky certificate above proves cond(H) <= sqrt(2 / tau_N)
    for H's (ell_max + 1, N) diagonals d."""
    N = d.shape[1]
    lay = _band_layout(N, d.shape[0] - 1)
    a = _gram(d[None], lay)[0]
    trace = a[lay.slot0].real.sum()
    if not 1e-200 < trace < 1e200:
        return False
    a[lay.slot0] -= _tau(N) * trace
    M = np.zeros(N * N, dtype=complex)
    M[lay.dense_dst] = a.ravel()
    try:
        np.linalg.cholesky(M.reshape(N, N))
    except np.linalg.LinAlgError:
        return False
    return True


def _zf_solve(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """H^{-1} r for H's (ell_max + 1, N) diagonals d and a block r.

    H's diagonals are scattered straight into the folded layout, whose band
    keeps the growth of partial pivoting bounded, and solved densely. H
    with cond(H) > 1e12 is refused: an H that Weyl's bound or, failing it,
    the Cholesky certificate clears needs no SVD; any other H gets the exact
    np.linalg.cond test.
    """
    N = r.size
    lay = _band_layout(N, d.shape[0] - 1)
    # offsets 0..ell_max come first, so H's diagonals are the band's first rows
    H = np.zeros(N * N, dtype=complex)
    H[lay.dense_dst[: d.size]] = d.ravel()
    H = H.reshape(N, N)
    if not (_weyl_certified(d) or _certified(d)):
        cond = np.linalg.cond(H)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularChannelError(f"channel condition number {cond:.3e} exceeds 1e12")
    z = np.empty(N, dtype=complex)
    z[lay.perm] = np.linalg.solve(H, r[lay.perm])
    return z


def _cyclic_reduction(F: np.ndarray, m: int) -> None:
    """Solve block-tridiagonal Hermitian positive definite systems in place.

    F holds B systems of n block rows, F[:, i] = [D_i | b_i | L_i | U_i] with
    L_i = A_{i,i-1} and U_i = A_{i,i+1} (L_0 and U_{n-1} zero); on return
    F[..., m] holds x. Each level of the reduction (Heller, SIAM J. Numer.
    Anal. 13, 1976) overwrites [b | L | U] of the odd rows by
    [y | P | Q] = D^{-1} [b | L | U] in one batched solve, and one batched
    matmul gives the Schur complements that turn the even rows, in place,
    into the half-size system of the even x. Its blocks stay Hermitian
    positive definite, so no pivoting across blocks is needed. Back-
    substitution sets x_odd = y - P x_left - Q x_right, level by level.
    """
    levels = []
    while F.shape[1] > 1:
        n = F.shape[1]
        odd, even = F[:, 1::2], F[:, 0::2]
        # odd row j couples to even j through A_{2j,2j+1} = L^H and to even
        # j + 1 through A_{2j+2,2j+1} = U^H: one matmul gives both products
        coupling = odd[..., m + 1 :].conj().swapaxes(-1, -2)
        odd[..., m:] = np.linalg.solve(odd[..., :m], odd[..., m:])
        t = coupling @ odd[..., m:]
        # even j takes D -= L^H P, b -= L^H y and its new U = -L^H Q from odd
        # j, and D -= U^H Q, b -= U^H y and its new L = -U^H P from odd j - 1
        up, low = t[..., :m, :], t[:, : (n - 1) // 2, m:, :]
        even[:, : n // 2, :, :m] -= up[..., 1 : m + 1]
        even[:, : n // 2, :, m] -= up[..., 0]
        np.negative(up[..., m + 1 :], out=even[:, : n // 2, :, 2 * m + 1 :])
        even[:, 1:, :, :m] -= low[..., m + 1 :]
        even[:, 1:, :, m] -= low[..., 0]
        np.negative(low[..., 1 : m + 1], out=even[:, 1:, :, m + 1 : 2 * m + 1])
        levels.append(F)
        F = even
    F[..., m : m + 1] = np.linalg.solve(F[..., :m], F[..., m : m + 1])
    for F in reversed(levels):
        n = F.shape[1]
        x, odd = F[..., m, None], F[:, 1::2]
        x[:, 1::2] -= odd[..., m + 1 : 2 * m + 1] @ x[:, 0 : n - 1 : 2]
        x[:, 1 : n - 1 : 2] -= odd[:, : (n - 1) // 2, :, 2 * m + 1 :] @ x[:, 2::2]


def _lmmse_solve(d: np.ndarray, r: np.ndarray, noise_var: float) -> np.ndarray:
    """H^H (H H^H + s2 I)^{-1} r for a (B, ell_max + 1, N) stack of H's diagonals.

    The folded A of every frame goes into one (B, nb, m, width) array of
    block rows, and _cyclic_reduction solves the whole stack with one
    batched solve per level; with nb = 1 that is one dense solve per frame.
    """
    B, N = r.shape
    lay = _band_layout(N, d.shape[1] - 1)
    a = _gram(d, lay)
    a[:, lay.slot0] += noise_var
    F = np.zeros((B, lay.nb * lay.m * lay.width), dtype=complex)
    F[:, lay.band_dst] = a.reshape(B, -1)
    F[:, lay.pad_dst] = 1.0
    F[:, lay.vec] = r
    _cyclic_reduction(F.reshape(B, lay.nb, lay.m, lay.width), lay.m)
    u = d.conj() * F[:, None, lay.vec]
    return u.reshape(B, -1)[:, lay.adjoint_src].sum(axis=1)


def _check_spec(spec: WaveformSpec, N: int) -> None:
    """Refuse another block size, and OTFS pulses without T_tx = T_rx^H, the identity
    that the equalizers and the ML sensing search rest on by working in time domain."""
    if N != spec.n:
        raise ValueError(f"channel block size {N} != waveform size {spec.n}")
    if isinstance(spec, OtfsSpec) and not spec.adjoint_pulses:
        raise ValueError(
            "time-domain processing needs pulse_tx = conj(pulse_rx) with |pulse_rx| = 1"
        )


def _equalizer_inputs(spec: WaveformSpec, chan: ChannelRealization, r) -> tuple[np.ndarray, np.ndarray]:
    """The equalizers' shared input check; returns H's diagonals and r as an array."""
    _check_spec(spec, chan.config.N)
    r = np.asarray(r)
    if r.shape != (spec.n,):
        raise ValueError(f"received block must have length {spec.n}, got {r.shape}")
    return delay_diagonals(chan, spec.wrap), r


def equalize_zf(spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray) -> np.ndarray:
    """Zero-forcing on the time-domain channel: x_hat = demodulate(H^{-1} r) = G^{-1} y.

    r is the CP-stripped received block. H is solved densely in the fold
    permutation's banded order. Refuses channels with cond(H) = cond(G) >
    1e12; Weyl's bound or a Cholesky certificate clears well-conditioned
    channels without an SVD (see _weyl_certified and _certified).
    """
    d, r = _equalizer_inputs(spec, chan, r)
    return demodulate(spec, _zf_solve(d, r))


def equalize_lmmse(
    spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray, noise_var: float
) -> np.ndarray:
    """LMMSE on the time-domain channel: x_hat = demodulate(H^H (H H^H + s2 I)^{-1} r).

    This equals G^H (G G^H + s2 I)^{-1} y, because T_tx = T_rx^H with T_rx
    unitary. A = H H^H + s2 I has 2 ell_max + 1 cyclic diagonals, formed in
    O(N ell_max^2); folded, it is block tridiagonal and Hermitian positive
    definite, so block cyclic reduction needs no pivoting across blocks and
    costs O(N m^2) for blocks of m rows in about log2(N / m) batched solves.
    No N x N array is formed unless N is one block (N <= 96 here).
    """
    d, r = _equalizer_inputs(spec, chan, r)
    return demodulate(spec, _lmmse_solve(d[None], r[None], noise_var)[0])


def substream(seed: int, *key: int) -> np.random.Generator:
    """The RNG substream of (seed, key): its draws depend on nothing else."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class LinkResult:
    snr_db: float
    frames: int
    bit_errors: int
    ber: float
    papr_db_p99: float


# Frames per chunk: about 2^16 N x N entries (1 MiB of complex128) per chunk,
# the size of LMMSE's (B, m, m) stack while N is one block of m = N rows, so
# 16 frames at N = 64 and one from N = 256 on.
_CHUNK_ENTRIES = 1 << 16


def _chunks(N: int, count: int) -> list[range]:
    """Indices 0..count-1 in chunks of max(1, 2^16 // N^2): BER frames and sensing trials."""
    size = max(1, _CHUNK_ENTRIES // N**2)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _draw_frames(spec: WaveformSpec, chan_config: ChannelConfig, constellation: Constellation,
                 snr_db: float, doppler_mode: str, seed: int, keys) -> tuple:
    """The frames of the substream keys `keys` as stacks, one row per frame:
    ((gains, delays, dopplers), Doppler phases, bits, prefixed samples,
    received blocks).

    Frame key k draws channel, bits and noise, in this order, from
    substream(seed, *k); the transmit chain, the channel and the noise then
    run once on the stacks. The (B, P, N) phases doppler_phases(N, dopplers)
    are formed once, for the channel here and for the caller's H diagonals
    (_stack_diagonals). snr_db = +inf draws no noise.
    """
    N, B = spec.n, len(keys)
    paths = [np.empty((B, chan_config.P), dtype=t) for t in (complex, np.intp, float)]
    bits = np.empty((B, N * constellation.bits_per_symbol), dtype=int)
    normals = np.empty((B, N, 2))
    noisy = snr_db != np.inf
    for b, key in enumerate(keys):
        rng = substream(seed, *key)
        for stack, drawn in zip(paths, _draw_paths(chan_config, doppler_mode, rng)):
            stack[b] = drawn
        bits[b] = rng.integers(0, 2, size=bits.shape[1])
        if noisy:
            normals[b] = rng.standard_normal((N, 2))
    x = map_bits(bits.ravel(), constellation).reshape(B, N)
    s_cp = prepend_cp(spec, modulate(spec, x))
    phases = doppler_phases(N, paths[2])
    r = _apply_samples(s_cp, N, paths[0], paths[1], phases)
    if noisy:
        r = r + _noise(normals, snr_db)
    return paths, phases, bits, s_cp, r


def _run_frames(spec: WaveformSpec, chan_config: ChannelConfig, constellation: Constellation,
                snr_db: float, detector: str, doppler_mode: str, seed: int, frames: range):
    """Monte Carlo frames `frames` as (B, N) stacks; returns (bit errors, papr_db) per frame."""
    paths, phases, bits, s_cp, r = _draw_frames(
        spec, chan_config, constellation, snr_db, doppler_mode, seed, [(i,) for i in frames]
    )
    if detector == "zf":
        # one public call per frame, in frame order: the first frame with
        # cond(H) > 1e12 raises from equalize_zf, as a lone block would
        x_hat = np.stack([
            equalize_zf(spec, _realization(chan_config, *path), r_b) for *path, r_b in zip(*paths, r)
        ])
    else:
        d = _stack_diagonals(chan_config.ell_max, paths[0], paths[1], phases, spec.wrap)
        x_hat = demodulate(spec, _lmmse_solve(d, r, _noise_var(snr_db)))
    bits_hat = demap_symbols(x_hat.ravel(), constellation)
    errors = np.count_nonzero((bits_hat != bits.ravel()).reshape(len(frames), -1), axis=1)
    return errors, _papr_db(s_cp)


def run_ber_point(
    spec: WaveformSpec,
    chan_config: ChannelConfig,
    constellation: Constellation,
    snr_db: float,
    frames: int,
    detector: str = "lmmse",
    seed: int = 0,
    doppler_mode: str = "fractional",
    threads: int = 1,
) -> LinkResult:
    """Monte Carlo BER at one SNR point.

    Each frame draws a fresh channel, bit block and noise from an RNG
    substream derived from (seed, frame index), so the result is
    reproducible to the byte. Frames run in fixed chunks of about 2^16 / N^2
    frames (16 at N = 64, one from N = 256 on): each chunk goes through
    mapping, modulation, prefix, channel, noise, equalizer, demodulation and
    demapping as (B, N) stacks, and no step, the LMMSE block rule included,
    depends on the stack size, so the chunk size changes no result. ZF
    equalizes the chunk's frames one by one through equalize_zf, in frame
    order: Weyl's bound or a Cholesky certificate clears a well-conditioned
    H without an SVD, any other H gets the exact cond(H) > 1e12 test, and
    the first refused frame raises SingularChannelError. snr_db = +inf runs
    noiseless; NaN and -inf raise ValueError before the first frame.
    `threads` must be >= 1 and has no other effect.
    """
    _check_snr(snr_db)
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if detector not in ("zf", "lmmse"):
        raise ValueError(f"unknown detector {detector!r}")
    _check_spec(spec, chan_config.N)
    results = [
        _run_frames(spec, chan_config, constellation, snr_db, detector, doppler_mode, seed, chunk)
        for chunk in _chunks(spec.n, frames)
    ]
    errors = int(sum(e.sum() for e, _ in results))
    paprs = np.concatenate([p for _, p in results])
    total_bits = frames * spec.n * constellation.bits_per_symbol
    return LinkResult(
        snr_db=snr_db,
        frames=frames,
        bit_errors=errors,
        ber=errors / total_bits,
        papr_db_p99=float(np.percentile(paprs, 99)),
    )

"""Communication-side measurement: constellations, AWGN, equalizers, BER.

Both equalizers run on the time-domain channel H, never on the symbol-domain
G = T_rx . H . T_tx: every modem has T_tx = T_rx^H with T_rx unitary, so ZF is
G^{-1} y = demodulate(H^{-1} r) and LMMSE is demodulate(H^H (H H^H + s2 I)^{-1} r)
for the CP-stripped received block r. H has only ell_max + 1 populated cyclic
diagonals. LMMSE forms the 2 ell_max + 1 cyclic diagonals of H H^H + s2 I;
after a fold permutation they are block tridiagonal, and block cyclic
reduction solves them with about log2(nb) batched solves for nb blocks of
m rows (m at least the folded half-bandwidth and at least 8): O(N m^2), so
linear in N. ZF solves the folded dense H in O(N^3), one LU for a stack of
received blocks, behind the same guard as the symbol-domain solve it
replaces: it refuses when cond(H) = cond(G) exceeds 1e12, in three stages.
Weyl's bound on the diagonals' magnitudes certifies cond(H) <= about 1e6 in
O(N ell_max) when one delay outweighs the others; a Cholesky of
H H^H - t I, with t a rounding-error margin, certifies the same bound for a
frame it does not clear; only a frame neither clears runs the exact
np.linalg.cond test, so every frame is accepted or refused as the SVD alone
would decide.

_draw_frames writes the transmitted frame once: each frame draws channel,
bits and noise from its own RNG substream, none of them depending on the
SNR or the waveform, and a chunk of about 2^16 / N^2 frames is drawn and
mapped once for all waveforms of a sweep; each waveform runs the transmit
chain and the channel as (B, N) stacks once for the whole SNR sweep, and
each SNR point adds its own scaling of the frame's noise, scaled once, to
the noiseless received block. BER frames and the `sense` trials
(sensing._sense_trials, one point, one waveform) both come from it, in the
same chunks. The public single-block functions call the same stacked code
with B = 1. The transmitted blocks take the channel's sample route
(channel._apply_samples), which reads their prefix; the receivers read H
by its diagonal route. Waveforms with equal prefix vectors (spec.wrap) see
the same H (_prefix_groups), so _draw_frames forms H's diagonals
(channel._stack_diagonals) once per chunk and group. LMMSE forms the
diagonals of H H^H once per chunk and group (_lmmse_sweep), and each SNR
point fills the block rows, adds its s2 and runs one cyclic reduction with
a right-hand-side column per waveform of the group. The prefix phases are
reduced exactly (modem.AfdmSpec.wrap), so a tuned AFDM prefix vector is
exactly ones at even N, and OFDM, OTFS and AFDM then form one group. ZF
guards the chunk's groups as one stack (_zf_accept), with one decision
per frame: the first refused frame, in group and then frame order,
raises. Each accepted frame's realization keeps its diagonals per prefix
vector, and each frame then goes through the public equalize_zf once per
waveform, with its received blocks of all SNR points as one (S, N) stack,
for the LU and demodulation alone.
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


@lru_cache(maxsize=8)
def _demap_tables(constellation: Constellation):
    """(real cuts, imaginary cuts, bit table) of a grid constellation, or
    (None, None, bit table) for any other.

    A grid has points re[i] + 1j im[q], i = label // len(im) and q = label %
    len(im): the high bits of a label pick the real level and the low bits
    the imaginary one, as in QPSK and 16-QAM. Between two neighbouring
    levels lo < hi of an axis, the cut t is the largest float that does not
    go to hi, decided exactly (math.fsum): x goes to hi if it is nearer to
    hi, or exactly midway and hi's label is the lower. Row
    k * len(im) + j of a grid's bit table holds the bits of the point at the
    k-th real and j-th imaginary level, in ascending order; otherwise row
    `label` holds the bits of that label.
    """
    pts = np.asarray(constellation.points)
    bps = constellation.bits_per_symbol
    bits = (np.arange(len(pts))[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    n_re, n_im = len(np.unique(pts.real)), len(np.unique(pts.imag))
    if n_re * n_im != len(pts):
        return None, None, bits
    re, im = pts.real.reshape(n_re, n_im), pts.imag.reshape(n_re, n_im)
    if np.any(re != re[:, :1]) or np.any(im != im[:1]):
        return None, None, bits

    def axis(levels):
        order = np.argsort(levels)
        cuts = []
        for lo, hi, hi_wins_ties in zip(levels[order[:-1]], levels[order[1:]], order[1:] < order[:-1]):
            def goes_up(x):
                gap = math.fsum((2.0 * x, -lo, -hi))  # correctly rounded: its sign is exact
                return gap > 0 or (gap == 0 and hi_wins_ties)

            t = (lo + hi) / 2.0  # within an ulp of the exact midpoint
            while goes_up(t):
                t = np.nextafter(t, -np.inf)
            while not goes_up(np.nextafter(t, np.inf)):
                t = np.nextafter(t, np.inf)
            cuts.append(t)
        return order, np.array(cuts)

    (i_order, i_cuts), (q_order, q_cuts) = axis(re[:, 0]), axis(im[0])
    return i_cuts, q_cuts, bits[(i_order[:, None] * n_im + q_order).ravel()]


def demap_symbols(x_hat: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard nearest-point demapping back to bits, MSB first per symbol.

    One rule decides every constellation: the nearest point, a tie going
    to the lowest label. A constellation that is not a grid (see
    _demap_tables) takes the argmin of |x - p| over its points p. A grid
    (QPSK, 16-QAM) is decided per axis by its cuts, as the nearest level
    in exact arithmetic, so a value exactly midway between two levels goes
    to the one with the lower label (with 16-QAM's Gray labels on
    -3, -1, 1, 3: -3 at the first cut, -1 at the second and 3 at the
    third, where the labels descend).
    """
    x_hat = np.asarray(x_hat).ravel()
    i_cuts, q_cuts, bits = _demap_tables(constellation)
    if i_cuts is None:
        rows = np.argmin(np.abs(x_hat[:, None] - np.asarray(constellation.points)), axis=1)
    else:
        rows = np.searchsorted(i_cuts, x_hat.real) * (len(q_cuts) + 1) + np.searchsorted(q_cuts, x_hat.imag)
    return np.take(bits, rows, axis=0).reshape(-1)


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
    stored as one (m, width) frame [A_ii | rhs_i | A_{i,i-1} | A_{i,i+1}]
    with R right-hand-side columns rhs_i, width 3m + R; with nb = 1 it is
    [A | rhs], width m + R.
    Band entry k goes to entry band_dst[k] of the flattened (nb, m, width)
    frames and to entry dense_dst[k] of the whole folded A, flattened; the
    main diagonal's N entries go to diag_dst. Sample n of right-hand side
    k sits at vec[k * N + n] of the flattened frames, in rhs column k of
    folded row inv[n].
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
    diag_dst: np.ndarray
    pad_dst: np.ndarray
    vec: np.ndarray
    # H^H z: entry k sums conj(d[e]) * z at (k + e) mod N over e, read from the
    # flattened (ell_max + 1, N) product at adjoint_src[:, k]
    adjoint_src: np.ndarray


# The block rule, from timings of _lmmse_solve on a 2-vCPU box with one BLAS
# thread (CHANGES.md has the table). Cyclic reduction makes about a dozen
# numpy calls per level, ceil(log2(nb)) levels, and one LAPACK solve with
# 2m + 1 right-hand sides per block (2m + R for R waveforms sharing H). At
# m = 8 that solve costs a few us, and several times more per row from
# m = 10 on, so blocks have _BLOCK_ROWS rows unless the band is wider. Up
# to N = _ONE_BLOCK_ROWS the reduction's per-level calls cost more than the
# N^3 LU, so A is one dense block there.
# The rule reads N alone: a frame's estimate must not depend on how many
# frames share its stack.
_BLOCK_ROWS = 8
_ONE_BLOCK_ROWS = 96


@lru_cache(maxsize=32)
def _band_layout(N: int, ell_max: int, R: int = 1) -> _BandLayout:
    """The layout of A with R right-hand sides: one dense block while N <= 96,
    else ceil(N / max(half-bandwidth, 8)) blocks of at least the half-bandwidth."""
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
    width = m + R if nb == 1 else 3 * m + R
    bi, bj = i // m, j // m
    col = j % m + np.select([bj == bi, bj < bi], [0, m + R], 2 * m + R)
    band_dst = i * width + col
    slot0 = offsets.index(0)
    pad = np.arange(N, nb * m)
    return _BandLayout(
        perm=perm,
        pair_src=(e2[:, None] * N + (n - (e - e2)[:, None]) % N).reshape(ell_max + 1, -1, N),
        pair_slot=pair_slot,
        slot0=slot0,
        dense_dst=i * N + j,
        nb=nb,
        m=m,
        width=width,
        band_dst=band_dst,
        diag_dst=band_dst[slot0 * N : (slot0 + 1) * N],
        pad_dst=pad * width + pad % m,
        vec=(inv * width + m + np.arange(R)[:, None]).ravel(),
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


def _weyl_certified(d: np.ndarray):
    """Whether Weyl's bound above proves cond(H) <= sqrt(2 / tau_N), with no
    factorization, for each H of a (..., ell_max + 1, N) stack d of H's
    diagonals: a bool array of the leading shape, or one bool for one H."""
    tau = _tau(d.shape[-1])
    K = math.sqrt(2.0 / tau)
    cK = (1.0 - 2.0 * K * tau) * K
    mags = np.abs(d)
    a, b = mags.max(axis=-1), mags.min(axis=-1)
    l0 = np.argmax(a + b, axis=-1)[..., None]  # the first delay of the largest a + b
    a0, b0 = (np.take_along_axis(x, l0, axis=-1)[..., 0] for x in (a, b))
    # the other a_ell summed one by one in delay order (accumulate is sequential)
    r = np.add.accumulate(np.where(np.arange(a.shape[-1]) == l0, 0.0, a), axis=-1)[..., -1]
    ok = (b0 > 1e-200) & (a0 + r < 1e200) & (a0 + (cK + 1.0) * r <= cK * b0)
    return bool(ok) if d.ndim == 2 else ok


def _certified(d: np.ndarray):
    """Whether the Cholesky certificate above proves cond(H) <= sqrt(2 / tau_N)
    for each H of a (..., ell_max + 1, N) stack d of H's diagonals: a bool
    array of the leading shape, or one bool for one H. The Gram diagonals
    of the whole stack come from one _gram call; the Cholesky runs frame by
    frame, so one failure leaves the other frames' answers alone, on one
    reused N x N buffer."""
    E, N = d.shape[-2:]
    lay = _band_layout(N, E - 1)
    a = _gram(d.reshape(-1, E, N), lay)
    ok = np.zeros(len(a), dtype=bool)
    M = np.zeros(N * N, dtype=complex)
    for b, ab in enumerate(a):
        trace = ab[lay.slot0].real.sum()
        if not 1e-200 < trace < 1e200:
            continue
        ab[lay.slot0] -= _tau(N) * trace
        M[lay.dense_dst] = ab.ravel()
        try:
            np.linalg.cholesky(M.reshape(N, N))
        except np.linalg.LinAlgError:
            continue
        ok[b] = True
    return bool(ok[0]) if d.ndim == 2 else ok.reshape(d.shape[:-2])


def _folded(d: np.ndarray) -> np.ndarray:
    """H in the fold permutation's banded order, dense, from its (ell_max + 1, N) diagonals d."""
    N = d.shape[1]
    lay = _band_layout(N, d.shape[0] - 1)
    # offsets 0..ell_max come first, so H's diagonals are the band's first rows
    H = np.zeros(N * N, dtype=complex)
    H[lay.dense_dst[: d.size]] = d.ravel()
    return H.reshape(N, N)


def _zf_guard(d: np.ndarray) -> None:
    """Raise SingularChannelError for the first H, in C order, of a
    (..., ell_max + 1, N) stack d of H's diagonals with cond(H) > 1e12.

    Weyl's bound clears what it can of the whole stack, the Cholesky
    certificate runs on the rest as one stack, and only a frame neither
    clears gets the exact np.linalg.cond test, in order, so each frame is
    decided as the SVD alone would decide it and the message names the
    first refused frame's condition number."""
    flat = d.reshape(-1, *d.shape[-2:])
    ok = _weyl_certified(flat)
    rest = np.flatnonzero(~ok)
    if rest.size:
        ok[rest] = _certified(flat[rest])
    for b in np.flatnonzero(~ok):
        cond = np.linalg.cond(_folded(flat[b]))
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularChannelError(f"channel condition number {cond:.3e} exceeds 1e12")


def _zf_accept(chans, wraps, d: np.ndarray) -> None:
    """Guard a (G, B, ell_max + 1, N) stack d of H's diagonals, G prefix
    vectors wraps by B realizations chans (_zf_guard), then keep row
    d[g, b], read-only, on chans[b]._zf_accepted under wraps[g]'s bytes.
    A refusal raises before anything is kept."""
    _zf_guard(d)
    d.flags.writeable = False
    for wrap, rows in zip(wraps, d):
        for chan, row in zip(chans, rows):
            chan._zf_accepted[wrap.tobytes()] = row


def _zf_diagonals(chan: ChannelRealization, wrap: np.ndarray) -> np.ndarray:
    """H's diagonals for the prefix vector wrap, read-only, once the guard has
    accepted H; H with cond(H) > 1e12 raises SingularChannelError.

    The diagonals kept on the realization (chan._zf_accepted, keyed by
    wrap's bytes) are returned as they are; otherwise this is the one-frame
    _zf_accept. Waveforms with equal prefix vectors, as OFDM, OTFS and a
    tuned AFDM at even N, so form and guard H once per realization. A
    refused H is not kept, so every call on it raises."""
    key = wrap.tobytes()
    if key not in chan._zf_accepted:
        _zf_accept([chan], [wrap], delay_diagonals(chan, wrap)[None, None])
    return chan._zf_accepted[key]


def _zf_solve(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """H^{-1} r for H's (ell_max + 1, N) diagonals d and a block r, row by row
    for an (S, N) stack r; the caller guards H (_zf_diagonals).

    H's diagonals are scattered straight into the folded layout, whose band
    keeps the growth of partial pivoting bounded, and solved densely, the
    rows of a stack as right-hand sides of one LU.
    """
    perm = _band_layout(r.shape[-1], d.shape[0] - 1).perm
    z = np.empty(r.shape, dtype=complex)
    z[..., perm] = np.linalg.solve(_folded(d), r[..., perm].T).T
    return z


def _cyclic_reduction(F: np.ndarray, m: int) -> None:
    """Solve block-tridiagonal Hermitian positive definite systems in place.

    F holds B systems of n block rows, F[:, i] = [D_i | b_i | L_i | U_i] with
    L_i = A_{i,i-1} and U_i = A_{i,i+1} (L_0 and U_{n-1} zero) and b_i the
    R columns of R right-hand sides, R read from F's width (m + R if n = 1,
    else 3m + R); on return F[..., m : m + R] holds x. Each level of the
    reduction (Heller, SIAM J. Numer. Anal. 13, 1976) overwrites [b | L | U]
    of the odd rows by [y | P | Q] = D^{-1} [b | L | U] in one batched
    solve, and one batched matmul gives the Schur complements that turn the
    even rows, in place, into the half-size system of the even x. Its
    blocks stay Hermitian positive definite, so no pivoting across blocks
    is needed. Back-substitution sets x_odd = y - P x_left - Q x_right,
    level by level.
    """
    R = F.shape[-1] - (m if F.shape[1] == 1 else 3 * m)
    levels = []
    while F.shape[1] > 1:
        n = F.shape[1]
        odd, even = F[:, 1::2], F[:, 0::2]
        # odd row j couples to even j through A_{2j,2j+1} = L^H and to even
        # j + 1 through A_{2j+2,2j+1} = U^H: one matmul gives both products
        coupling = odd[..., m + R :].conj().swapaxes(-1, -2)
        odd[..., m:] = np.linalg.solve(odd[..., :m], odd[..., m:])
        t = coupling @ odd[..., m:]
        # even j takes D -= L^H P, b -= L^H y and its new U = -L^H Q from odd
        # j, and D -= U^H Q, b -= U^H y and its new L = -U^H P from odd j - 1
        up, low = t[..., :m, :], t[:, : (n - 1) // 2, m:, :]
        even[:, : n // 2, :, :m] -= up[..., R : m + R]
        even[:, : n // 2, :, m : m + R] -= up[..., :R]
        np.negative(up[..., m + R :], out=even[:, : n // 2, :, 2 * m + R :])
        even[:, 1:, :, :m] -= low[..., m + R :]
        even[:, 1:, :, m : m + R] -= low[..., :R]
        np.negative(low[..., R : m + R], out=even[:, 1:, :, m + R : 2 * m + R])
        levels.append(F)
        F = even
    F[..., m : m + R] = np.linalg.solve(F[..., :m], F[..., m : m + R])
    for F in reversed(levels):
        n = F.shape[1]
        x, odd = F[..., m : m + R], F[:, 1::2]
        x[:, 1::2] -= odd[..., m + R : 2 * m + R] @ x[:, 0 : n - 1 : 2]
        x[:, 1 : n - 1 : 2] -= odd[:, : (n - 1) // 2, :, 2 * m + R :] @ x[:, 2::2]


def _lmmse_sweep(d: np.ndarray, r: np.ndarray, noise_vars) -> np.ndarray:
    """H^H (H H^H + s2 I)^{-1} r[:, s] at s2 = noise_vars[s], for a
    (B, ell_max + 1, N) stack of H's diagonals and a (B, S, R, N) stack r:
    R blocks per frame through that frame's H at each of S noise variances.

    The cyclic diagonals of H H^H are formed once. For each noise variance
    the folded H H^H of every frame is scattered into one (B, nb, m, width)
    array of block rows, reused across the variances, s2 is added to its
    main diagonal and the R blocks put in the rhs columns, and
    _cyclic_reduction solves the whole stack with one batched solve per
    level; with nb = 1 that is one dense solve per frame.
    """
    B, S, R, N = r.shape
    lay = _band_layout(N, d.shape[1] - 1, R)
    a = _gram(d, lay).reshape(B, -1)
    x = np.empty(r.shape, dtype=complex)
    F = np.empty((B, lay.nb * lay.m * lay.width), dtype=complex)
    for s, noise_var in enumerate(noise_vars):
        F.fill(0.0)
        F[:, lay.band_dst] = a
        F[:, lay.pad_dst] = 1.0
        F[:, lay.diag_dst] += noise_var
        F[:, lay.vec] = r[:, s].reshape(B, -1)
        _cyclic_reduction(F.reshape(B, lay.nb, lay.m, lay.width), lay.m)
        # one (B R, ell_max + 1, N) product, summed over the delays as one stack
        u = d.conj()[:, None] * F[:, lay.vec].reshape(B, R, 1, N)
        x[:, s] = u.reshape(B * R, -1)[:, lay.adjoint_src].sum(axis=1).reshape(B, R, N)
    return x


def _lmmse_solve(d: np.ndarray, r: np.ndarray, noise_var: float) -> np.ndarray:
    """H^H (H H^H + s2 I)^{-1} r for a (B, ell_max + 1, N) stack of H's
    diagonals and a (B, N) stack r, one block per frame: the one-point,
    one-column _lmmse_sweep."""
    return _lmmse_sweep(d, r[:, None, None], [noise_var])[:, 0, 0]


def _check_spec(spec: WaveformSpec, N: int) -> None:
    """Refuse another block size, and OTFS pulses without T_tx = T_rx^H, the identity
    that the equalizers and the ML sensing search rest on by working in time domain."""
    if N != spec.n:
        raise ValueError(f"channel block size {N} != waveform size {spec.n}")
    if isinstance(spec, OtfsSpec) and not spec.adjoint_pulses:
        raise ValueError(
            "time-domain processing needs pulse_tx = conj(pulse_rx) with |pulse_rx| = 1"
        )


def _received(spec: WaveformSpec, chan: ChannelRealization, r) -> np.ndarray:
    """The equalizers' shared input check; returns r, one block (N,) or a
    stack (S, N), as an array."""
    _check_spec(spec, chan.config.N)
    r = np.asarray(r)
    if r.ndim not in (1, 2) or r.shape[-1] != spec.n:
        raise ValueError(f"received blocks must have shape ({spec.n},) or (S, {spec.n}), got {r.shape}")
    return r


def equalize_zf(spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray) -> np.ndarray:
    """Zero-forcing on the time-domain channel: x_hat = demodulate(H^{-1} r) = G^{-1} y.

    r is the CP-stripped received block (N,), or an (S, N) stack of blocks
    through the same channel, equalized row by row. H is solved densely in
    the fold permutation's banded order, once for the whole stack. Refuses
    channels with cond(H) = cond(G) > 1e12; Weyl's bound or a Cholesky
    certificate clears well-conditioned channels without an SVD (see
    _zf_guard). The guard reads H alone, so it runs once per realization
    and prefix vector, whatever S (_zf_diagonals): a later call for a
    waveform with an equal spec.wrap pays only the LU and demodulate. A
    refused channel is refused again, with the same message, by every call.
    """
    r = _received(spec, chan, r)
    return demodulate(spec, _zf_solve(_zf_diagonals(chan, spec.wrap), r))


def equalize_lmmse(
    spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray, noise_var: float
) -> np.ndarray:
    """LMMSE on the time-domain channel: x_hat = demodulate(H^H (H H^H + s2 I)^{-1} r).

    This equals G^H (G G^H + s2 I)^{-1} y, because T_tx = T_rx^H with T_rx
    unitary. A = H H^H + s2 I has 2 ell_max + 1 cyclic diagonals, formed in
    O(N ell_max^2); folded, it is block tridiagonal and Hermitian positive
    definite, so block cyclic reduction needs no pivoting across blocks and
    costs O(N m^2) for blocks of m rows in about log2(N / m) batched solves.
    No N x N array is formed unless N is one block (N <= 96 here). r is one
    block (N,) or an (S, N) stack, equalized row by row.
    """
    r = _received(spec, chan, r)
    d = delay_diagonals(chan, spec.wrap)
    rows = r.reshape(-1, spec.n)
    x = _lmmse_solve(np.broadcast_to(d, (len(rows), *d.shape)), rows, noise_var)
    return demodulate(spec, x.reshape(r.shape))


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


def _draw_frames(specs, chan_config: ChannelConfig, constellation: Constellation,
                 snrs, doppler_mode: str, seed: int, keys) -> tuple:
    """The frames of the substream keys `keys` as stacks, one row per frame,
    for each waveform of specs (all of one block size N): ((gains, delays,
    dopplers), [(group, H's (B, ell_max + 1, N) diagonals)] per prefix
    group (_prefix_groups), bits, [(prefixed samples, received blocks)
    per spec]), the received blocks (B, S, N), one per SNR point snrs[s].

    Frame key k draws channel, bits and noise, in this order, from
    substream(seed, *k), once for all waveforms, so no draw depends on snrs
    or specs. The bits are mapped, the (B, P, N) phases
    doppler_phases(N, dopplers) formed and each point's noise scaled once;
    the phases serve both routes of the channel: the diagonals, formed once
    per group (_stack_diagonals), and the sample route (_apply_samples), on
    which each waveform runs the transmit chain once on the stacks. Point s
    adds the frame's noise at snrs[s] to the noiseless received block. A
    sweep of +inf points alone draws no noise.
    """
    N, B = specs[0].n, len(keys)
    paths = [np.empty((B, chan_config.P), dtype=t) for t in (complex, np.intp, float)]
    bits = np.empty((B, N * constellation.bits_per_symbol), dtype=int)
    normals = np.empty((B, N, 2))
    noisy = any(snr != np.inf for snr in snrs)
    for b, key in enumerate(keys):
        rng = substream(seed, *key)
        for stack, drawn in zip(paths, _draw_paths(chan_config, doppler_mode, rng)):
            stack[b] = drawn
        bits[b] = rng.integers(0, 2, size=bits.shape[1])
        if noisy:
            normals[b] = rng.standard_normal((N, 2))
    x = map_bits(bits.ravel(), constellation).reshape(B, N)
    phases = doppler_phases(N, paths[2])
    noise = [None if snr == np.inf else _noise(normals, snr) for snr in snrs]
    stacks = []
    for spec in specs:
        s_cp = prepend_cp(spec, modulate(spec, x))
        r0 = _apply_samples(s_cp, N, paths[0], paths[1], phases)
        stacks.append((s_cp, np.stack([r0 if z is None else r0 + z for z in noise], axis=1)))
    diagonals = [
        (group, _stack_diagonals(chan_config.ell_max, paths[0], paths[1], phases, specs[group[0]].wrap))
        for group in _prefix_groups(specs)
    ]
    return paths, diagonals, bits, stacks


def _prefix_groups(specs) -> list[list[int]]:
    """Indices of specs grouped by equal prefix vectors (spec.wrap), in order
    of first appearance: waveforms of one group see the same time-domain H.

    The vectors are compared exactly. OFDM and OTFS are ones, and so is a
    tuned AFDM at even N, whose phases q (N^2 + 2 N n') / 2N are whole
    cycles: all three form one group. A tuned AFDM at odd N (factors -1) or
    an AFDM with a given c1 forms a group of its own."""
    groups: list[list[int]] = []
    for w, spec in enumerate(specs):
        group = next((g for g in groups if np.array_equal(specs[g[0]].wrap, spec.wrap)), None)
        if group is None:
            groups.append([w])
        else:
            group.append(w)
    return groups


def _run_frames(specs, chan_config: ChannelConfig, constellation: Constellation,
                snrs, detector: str, doppler_mode: str, seed: int, frames: range):
    """Monte Carlo frames `frames` of every waveform of specs at the SNR
    points snrs as stacks; returns (bit errors (W, B, S), papr_db (W, B))
    for W = len(specs)."""
    paths, diagonals, bits, stacks = _draw_frames(
        specs, chan_config, constellation, snrs, doppler_mode, seed, [(i,) for i in frames]
    )
    errors = np.empty((len(specs), len(frames), len(snrs)), dtype=np.intp)

    def count(w, x_hat):
        """Bit errors of waveform w's (B, S, N) estimates, demapped as soon as
        they exist: a (symbols, points) distance table per waveform, not per sweep."""
        bits_hat = demap_symbols(x_hat.ravel(), constellation).reshape(*x_hat.shape[:2], -1)
        errors[w] = np.count_nonzero(bits_hat != bits[:, None], axis=2)

    if detector == "zf":
        # one guard for the chunk's groups and frames, the first refusal in group
        # and frame order raising; then one public call per frame and waveform,
        # with the frame's S blocks, which finds H accepted and runs the LU
        chans = [_realization(chan_config, *path) for path in zip(*paths)]
        wraps = [specs[group[0]].wrap for group, _ in diagonals]
        _zf_accept(chans, wraps, np.stack([d for _, d in diagonals]))
        for w, (spec, (_, r)) in enumerate(zip(specs, stacks)):
            count(w, np.stack([equalize_zf(spec, chan, r_b) for chan, r_b in zip(chans, r)]))
    else:
        noise_vars = [_noise_var(snr) for snr in snrs]
        for group, d in diagonals:
            # one Gram per chunk and prefix, one reduction per point with a
            # right-hand side per waveform of the group
            z = _lmmse_sweep(d, np.stack([stacks[w][1] for w in group], axis=2), noise_vars)
            for k, w in enumerate(group):
                count(w, demodulate(specs[w], z[:, :, k]))
    return errors, np.stack([_papr_db(s_cp) for s_cp, _ in stacks])


def _ber_sweep(specs, chan_config: ChannelConfig, constellation: Constellation,
               snrs, frames: int, detector: str = "lmmse", seed: int = 0,
               doppler_mode: str = "fractional") -> list[list[LinkResult]]:
    """Monte Carlo BER of each waveform of specs at each SNR point of snrs:
    per spec, one LinkResult per point, in order.

    Each frame draws a fresh channel, bit block and noise from an RNG
    substream derived from (seed, frame index), so frame i is the same frame
    at every point and for every waveform, and the result is reproducible
    to the byte. Frames run in fixed chunks of about 2^16 / N^2 frames (16
    at N = 64, one from N = 256 on): each chunk is drawn once, goes through
    mapping, modulation, prefix and channel once per waveform for the sweep,
    then through noise, equalizer, demodulation and demapping per point, as
    stacks. LMMSE solves the waveforms that share a prefix vector, and so
    H, as one system per chunk with one right-hand side per waveform
    (_prefix_groups). No step, the LMMSE block rule included, depends on
    the stack size, so neither the chunk size nor the other points change a
    point's result (with one BLAS thread, ZF's LU solves S right-hand sides
    bit for bit as it solves one; LMMSE's reduction of R > 1 right-hand
    sides agrees with R = 1 solves to rounding). ZF guards each chunk's
    prefix groups as one stack, one decision per frame: Weyl's bound or a
    Cholesky certificate clears a well-conditioned H without an SVD, any
    other H gets the exact cond(H) > 1e12 test, and the first refused frame,
    in group and then frame order, raises SingularChannelError. It then
    equalizes the chunk's frames one by one through equalize_zf, waveform
    by waveform, in frame order, each with its S blocks: the LU runs once
    per frame and waveform. A point of +inf runs noiseless; NaN and -inf
    raise ValueError before the first frame.
    """
    for snr_db in snrs:
        _check_snr(snr_db)
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if detector not in ("zf", "lmmse"):
        raise ValueError(f"unknown detector {detector!r}")
    for spec in specs:
        _check_spec(spec, chan_config.N)
    results = [
        _run_frames(specs, chan_config, constellation, snrs, detector, doppler_mode, seed, chunk)
        for chunk in _chunks(chan_config.N, frames)
    ]
    errors = np.concatenate([e for e, _ in results], axis=1).sum(axis=1).tolist()
    paprs = np.concatenate([p for _, p in results], axis=1)
    total_bits = frames * chan_config.N * constellation.bits_per_symbol
    return [
        [LinkResult(snr, frames, e, e / total_bits, p99) for snr, e in zip(snrs, errs)]
        for errs, p99 in zip(errors, (float(np.percentile(p, 99)) for p in paprs))
    ]


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
    """Monte Carlo BER at one SNR point: the one-point, one-waveform sweep of _ber_sweep.

    Each frame draws a fresh channel, bit block and noise from an RNG
    substream derived from (seed, frame index), so the result is
    reproducible to the byte and equals this point's row of any sweep.
    Frames run in fixed chunks as (B, N) stacks; ZF guards each chunk as
    one stack and equalizes its frames one by one through equalize_zf, one
    LU per frame (and waveform, in a sweep of several), and the first frame
    with cond(H) > 1e12 raises SingularChannelError. snr_db = +inf runs
    noiseless; NaN and -inf raise ValueError before the first frame.
    `threads` must be >= 1 and has no other effect.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return _ber_sweep([spec], chan_config, constellation, [snr_db], frames, detector, seed, doppler_mode)[0][0]

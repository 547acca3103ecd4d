"""Communication-side measurement: constellations, AWGN, equalizers, BER.

Both equalizers work on the time-domain channel H and never form
G = T_rx H T_tx: since T_tx = T_rx^H (modem), ZF is
G^{-1} y = demodulate(H^{-1} r) and LMMSE is
demodulate(H^H (H H^H + s2 I)^{-1} r) for the CP-stripped block r.

Fold layout. The fold permutation 0, N-1, 1, N-2, ... (_fold) turns a
matrix whose nonzeros lie within cyclic distance b of the diagonal into a
plain band of half-width at most 2b + 1. H has ell_max + 1 populated cyclic
diagonals and A = H H^H + s2 I has 2 ell_max + 1, so folded A, cut into nb
blocks of m rows, m at least its half-width (_band_layout), is block
tridiagonal and Hermitian positive definite. Block cyclic reduction
(Heller, SIAM J. Numer. Anal. 13, 1976) then needs no pivoting across
blocks: each level solves the odd block rows in one batched solve, and
their Schur complements turn the even rows into the half-size system of
the even unknowns; back-substitution recovers the odd ones. That is about
log2(nb) levels and O(N m^2) work. ZF solves folded H densely, O(N^3), its
band bounding the growth of partial pivoting, behind a guard that refuses
cond(H) = cond(G) > 1e12. Its two certificates, derived in the comment
above _tau, cost O(N ell_max) (Weyl's bound) and O(N ell_max^2) (a banded
Cholesky of folded H H^H) per channel; only a channel neither clears gets
an SVD.

Frames. Frame key k draws its channel, bits and noise, in that order, from
substream(seed, *k) (_draw_frames). No draw depends on the SNR points, the
waveforms or the stacks the frames run in, and no later step reads a stack
size. So a result is a pure function of (config, seed), frame i is the
same frame at every point and for every waveform, and a sweep's row equals
a one-point, one-waveform run, up to the rounding of LMMSE's shared
reduction of several right-hand sides. Each stack is sized by its own
largest array within one budget (_CHUNK_ENTRIES): a sweep draws,
modulates, sends, demodulates, demaps and counts its frames in chunks of
as many frames as keep their O(N) stacks within it (_chunks), and only the
solvers and the ZF guard's certificate cut a chunk into sub-stacks of
their N x N, block-row or band-store arrays. Per chunk, the bits are
mapped once, each waveform modulates once for the whole sweep, and each
point adds its own scaling of the frame's noise. Waveforms with equal
prefix vectors see the same H (_prefix_groups): per chunk and group, H's
diagonals are formed once, and LMMSE forms those of H H^H once per
sub-stack and runs one reduction per point with a right-hand-side column
per waveform. ZF guards the chunk's groups as one stack, one decision per
frame, the first refusal in frame and then group order raising, so a
refused sweep names the same frame whatever its stack sizes; then each
group makes one batched solve per sub-stack, one LU per frame for the
blocks of every point and waveform of the group, and each waveform one
demodulate of its slice. LAPACK factors each matrix of a stack alone and
solves each right-hand side column alone, so every row equals equalize_zf
on that frame's realization, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelRealization,
    _draw_paths,
    _stack_diagonals,
    _transmit,
    delay_diagonals,
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


def _labels(bits: np.ndarray, bps: int) -> np.ndarray:
    """The integer labels of bits, bps bits per symbol, MSB first: (..., n bps) -> (..., n)."""
    return bits.reshape(*bits.shape[:-1], -1, bps) @ (1 << np.arange(bps - 1, -1, -1))


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Pack bits (MSB first per symbol) into constellation points."""
    bits = np.asarray(bits, dtype=int)
    bps = constellation.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    return np.asarray(constellation.points)[_labels(bits.ravel(), bps)]


@lru_cache(maxsize=8)
def _demap_tables(constellation: Constellation):
    """(real cuts, imaginary cuts, label table) of a grid constellation, or
    None for any other.

    A grid has points re[i] + 1j im[q], i = label // len(im) and q = label %
    len(im): the high bits of a label pick the real level and the low bits
    the imaginary one, as in QPSK and 16-QAM. Between two neighbouring
    levels lo < hi of an axis, the cut t is the largest float that does not
    go to hi, decided exactly (math.fsum): x goes to hi if it is nearer to
    hi, or exactly midway and hi's label is the lower. Row
    k * len(im) + j of a grid's label table holds the label of the point at
    the k-th real and j-th imaginary level, in ascending order.
    """
    pts = np.asarray(constellation.points)
    n_re, n_im = len(np.unique(pts.real)), len(np.unique(pts.imag))
    if n_re * n_im != len(pts):
        return None
    re, im = pts.real.reshape(n_re, n_im), pts.imag.reshape(n_re, n_im)
    if np.any(re != re[:, :1]) or np.any(im != im[:1]):
        return None

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
    return i_cuts, q_cuts, (i_order[:, None] * n_im + q_order).ravel()


def _level(cuts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """How many of the ascending cuts lie below each v, NaN above them all:
    np.searchsorted(cuts, v), in one comparison per cut, which for a grid's
    few cuts costs less than a binary search per entry."""
    v = np.ascontiguousarray(v)
    k = np.zeros(v.shape, dtype=np.intp)
    for t in cuts:
        k += ~(v <= t)
    return k


def _decide(x_hat: np.ndarray, constellation: Constellation) -> np.ndarray:
    """The label of the point each estimate of x_hat is decided to, in its
    shape: per axis by exact cuts on a grid (_demap_tables), else by the
    argmin of |x - p| over the points p; a tie goes to the lowest label."""
    tables = _demap_tables(constellation)
    if tables is None:
        return np.argmin(np.abs(x_hat[..., None] - np.asarray(constellation.points)), axis=-1)
    i_cuts, q_cuts, labels = tables
    return labels[_level(i_cuts, x_hat.real) * (len(q_cuts) + 1) + _level(q_cuts, x_hat.imag)]


def demap_symbols(x_hat: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard nearest-point demapping back to bits, MSB first per symbol; a tie
    goes to the lowest label. A grid (QPSK, 16-QAM) is decided per axis by
    exact cuts, any other constellation by the argmin of |x - p| over its
    points p (_decide).
    """
    bps = constellation.bits_per_symbol
    labels = _decide(np.asarray(x_hat).ravel(), constellation)
    return ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).reshape(-1)


def _bit_errors(x_hat: np.ndarray, sent: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Bit errors of estimates x_hat (..., n) against the labels sent, summed
    over the last axis: popcount(decided label XOR sent label), with
    demap_symbols' decisions (_decide)."""
    bps = constellation.bits_per_symbol
    ones = ((np.arange(1 << bps)[:, None] >> np.arange(bps)) & 1).sum(axis=1)  # popcount table
    return ones[_decide(x_hat, constellation) ^ sent].sum(axis=-1)


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
    """The fold permutation 0, N-1, 1, N-2, ... and its inverse (module docstring)."""
    perm = np.empty(N, dtype=np.intp)
    perm[0::2] = np.arange((N + 1) // 2)
    perm[1::2] = np.arange(N - 1, (N - 1) // 2, -1)
    inv = np.empty(N, dtype=np.intp)
    inv[perm] = np.arange(N)
    return perm, inv


@dataclass(frozen=True)
class _BandLayout:
    """Where the diagonals of A = H H^H + s2 I and R right-hand sides go.

    Folded A is padded by an identity to nb * m rows. Block row i is one
    (m, width) frame [A_ii | rhs_i | A_{i,i-1} | A_{i,i+1}], width 3m + R,
    or [A | rhs], width m + R, when nb = 1. Band entry k goes to entry
    band_dst[k] of the flattened (nb, m, width) frames and dense_dst[k] of
    the flattened folded A; the main diagonal's go to diag_dst. Sample n of
    right-hand side k sits at vec[k * N + n], in rhs column k of folded row
    inv[n].
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
    # _certified's band store: folded A's half-width w, and the band entries
    # chol_src on or below the diagonal, folded (j + t, j), at chol_dst[k] =
    # j * store_width + t of a store of rows of store_width = max(2w, 1)
    half_width: int
    store_width: int
    chol_src: np.ndarray
    chol_dst: np.ndarray
    # H^H z: entry k sums conj(d[e]) * z at (k + e) mod N over e, read from the
    # flattened (ell_max + 1, N) product at adjoint_src[:, k]
    adjoint_src: np.ndarray


# The block rule, from timings of one-point LMMSE solves with one BLAS
# thread (CHANGES.md has the table). Each level makes about a dozen numpy
# calls and one LAPACK solve with 2m + R right-hand sides per block, whose
# cost per row is lowest at m = 8, so blocks have _BLOCK_ROWS rows unless
# the band is wider. Up to N = _ONE_BLOCK_ROWS the per-level calls cost more
# than the N^3 LU, so A is one dense block there. The rule reads N alone: a
# frame's estimate must not depend on how many frames share its stack.
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
    store_width = max(2 * half_width, 1)
    lower = np.flatnonzero(i >= j)
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
        half_width=half_width,
        store_width=store_width,
        chol_src=lower,
        chol_dst=j[lower] * store_width + (i - j)[lower],
    )


# The one budget of every stack of frames: 2^16 entries (1 MiB of complex128)
# in its largest array, unless one frame needs more. A draw chunk holds O(N)
# rows per frame (_chunks); the solvers cut it into sub-stacks by their own
# arrays, ZF's (b, N, N) folded H's and LMMSE's (b, nb, m, width) block rows,
# and so does the ZF guard's certificate, by its band stores (_certified).
_CHUNK_ENTRIES = 1 << 16


def _stack_size(entries: int) -> int:
    """Frames per stack of `entries` array entries each: as many as stay
    within _CHUNK_ENTRIES, at least one."""
    return max(1, _CHUNK_ENTRIES // entries)


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
# cond(H)^2 = cond(A) <= tr(A) / lambda_min(A) <= 2 / tau_N = K^2.
# Folded M is a band of half-width w (module docstring), and so is R, whose
# entries outside it are exact zeros: _certified evaluates the dense
# Cholesky's recurrences, right-looking and column by column, for the
# entries in the band alone, each pivot's root scaling its column through
# its reciprocal as LAPACK's does, and skips only terms that are exactly
# zero. Theorem 10.3 holds for any order of evaluating each inner product,
# so the bound is the dense factorization's, at O(N w^2) instead of O(N^3).
# The bounds assume no underflow or overflow:
# frames whose trace lies outside (1e-200, 1e200) get no certificate.
def _tau(N: int) -> float:
    """tau_N = (4N + 64) u of the certificates above."""
    return (4 * N + 64) * 2.0**-53


def _weyl_certified(d: np.ndarray) -> np.ndarray:
    """Whether Weyl's bound above proves cond(H) <= sqrt(2 / tau_N), with no
    factorization, for each H of a (..., ell_max + 1, N) stack d of H's
    diagonals: a bool array of the leading shape."""
    tau = _tau(d.shape[-1])
    K = math.sqrt(2.0 / tau)
    cK = (1.0 - 2.0 * K * tau) * K
    mags = np.abs(d)
    a, b = mags.max(axis=-1), mags.min(axis=-1)
    l0 = np.argmax(a + b, axis=-1)[..., None]  # the first delay of the largest a + b
    a0, b0 = (np.take_along_axis(x, l0, axis=-1)[..., 0] for x in (a, b))
    # the other a_ell summed one by one in delay order (accumulate is sequential)
    r = np.add.accumulate(np.where(np.arange(a.shape[-1]) == l0, 0.0, a), axis=-1)[..., -1]
    return (b0 > 1e-200) & (a0 + r < 1e200) & (a0 + (cK + 1.0) * r <= cK * b0)


def _certified(d: np.ndarray) -> np.ndarray:
    """Whether the Cholesky certificate above proves cond(H) <= sqrt(2 / tau_N)
    for each H of a (..., ell_max + 1, N) stack d of H's diagonals: a bool
    array of the leading shape. Per sub-stack of as many frames as keep
    their band stores within _stack_size, folded M's entries on and below
    the diagonal go to a store S[j, t] = M[j + t, j] of N + w rows
    (_BandLayout), frames last, and one right-looking Cholesky runs column
    by column on all its frames: an H is certified iff its trace is in range
    and every pivot is positive. Each step is elementwise across frames, so
    each H is decided alone; no N x N array is formed."""
    E, N = d.shape[-2:]
    lay = _band_layout(N, E - 1)
    w, L = lay.half_width, lay.store_width
    flat = d.reshape(-1, E, N)
    ok = np.empty(len(flat), dtype=bool)
    size = _stack_size((N + w) * L)
    # a frame out of range or past a failed pivot may fill with infs and NaNs,
    # which stay in its own column of the store
    with np.errstate(all="ignore"):
        for start in range(0, len(flat), size):
            a = _gram(flat[start : start + size], lay)
            b = len(a)
            trace = a[:, lay.slot0].real.sum(axis=1)
            a[:, lay.slot0] -= _tau(N) * trace[:, None]
            S = np.zeros(((N + w) * L, b), dtype=complex)
            S[lay.chol_dst] = a.reshape(b, -1)[:, lay.chol_src].T
            rows = S.reshape(N + w, L, b)
            for j in range(N):
                col = rows[j, 1 : w + 1] * (1.0 / np.sqrt(rows[j, 0].real))
                # M[j + s, j + t] -= col[s - 1] conj(col[t - 1]), 1 <= t <= s <= w: entry
                # (t - 1, s - 1) of the (w, w) view of stride L - 1 from row j + 1; those
                # with t > s land in spare columns w + 1 .. 2w - 1, which nothing reads
                base = (j + 1) * L
                S[base : base + w * (L - 1)].reshape(w, L - 1, b)[:, :w] -= col * col[:, None].conj()
            # each pivot stays in column 0 of its row: later updates start below it
            pivots = rows[:N, 0].real
            ok[start : start + size] = (1e-200 < trace) & (trace < 1e200) & (pivots > 0).all(axis=0)
    return ok.reshape(d.shape[:-2])


def _folded(d: np.ndarray) -> np.ndarray:
    """H in the fold permutation's banded order, dense, (B, N, N), from a
    (B, ell_max + 1, N) stack d of H's diagonals."""
    B, E, N = d.shape
    lay = _band_layout(N, E - 1)
    # offsets 0..ell_max come first, so H's diagonals are the band's first rows
    H = np.zeros((B, N * N), dtype=complex)
    H[:, lay.dense_dst[: E * N]] = d.reshape(B, -1)
    return H.reshape(B, N, N)


def _zf_guard(d: np.ndarray) -> None:
    """Raise SingularChannelError, naming cond(H), for the first H with
    cond(H) > 1e12 of a (G, B, ell_max + 1, N) stack d of H's diagonals, G
    prefix groups of B frames, in frame and then group order: a sweep names
    the same frame whatever its stack sizes. Weyl's bound on the whole
    stack, one _certified call on what it leaves, then np.linalg.cond on
    what neither clears: each H is decided as the SVD alone would decide it."""
    ok = _weyl_certified(d)
    ok[~ok] = _certified(d[~ok])
    for b, g in np.argwhere(~ok.T):
        cond = np.linalg.cond(_folded(d[g, b][None])[0])
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularChannelError(f"channel condition number {cond:.3e} exceeds 1e12")


def _zf_solve(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """H^{-1} r for a (B, ell_max + 1, N) stack d of H's diagonals and a
    (B, ..., N) stack r: one batched solve per sub-stack of _stack_size(N^2)
    frames, the size of its (b, N, N) folded H's, with one dense LU of each
    for all the blocks of its frame. The caller guards H (_zf_guard)."""
    B, N = r.shape[0], r.shape[-1]
    perm = _band_layout(N, d.shape[1] - 1).perm
    z = np.empty(r.shape, dtype=complex)
    rows, out = r.reshape(B, -1, N), z.reshape(B, -1, N)
    size = _stack_size(N * N)
    for start in range(0, B, size):
        sub = slice(start, start + size)
        cols = rows[sub][..., perm].swapaxes(1, 2)
        out[sub][..., perm] = np.linalg.solve(_folded(d[sub]), cols).swapaxes(1, 2)
    return z


def _cyclic_reduction(F: np.ndarray, m: int) -> None:
    """Solve B block-tridiagonal Hermitian positive definite systems in place
    by block cyclic reduction (module docstring).

    F is (B, n, m, width) with block rows F[:, i] = [D_i | b_i | L_i | U_i]
    as in _BandLayout, L_i = A_{i,i-1} and U_i = A_{i,i+1} (L_0 and U_{n-1}
    zero), and R right-hand sides read from the width; on return
    F[..., m : m + R] holds x. Each level overwrites [b | L | U] of the odd
    rows by [y | P | Q] = D^{-1} [b | L | U], and back-substitution sets
    x_odd = y - P x_left - Q x_right.
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
    """H^H (H H^H + s2 I)^{-1} r[:, s] at s2 = noise_vars[s], shape (B, S, R, N),
    for a (B, ell_max + 1, N) stack of H's diagonals and a (B, S, R, N)
    stack r: R blocks per frame at each of S noise variances. The frames go
    in sub-stacks of _stack_size(nb m width), the size of their block rows
    F; per sub-stack the diagonals of H H^H are formed once, then one
    _cyclic_reduction per variance.
    """
    B, S, R, N = r.shape
    lay = _band_layout(N, d.shape[1] - 1, R)
    x = np.empty(r.shape, dtype=complex)
    size = _stack_size(lay.nb * lay.m * lay.width)
    buffer = np.empty((min(B, size), lay.nb * lay.m * lay.width), dtype=complex)
    for start in range(0, B, size):
        sub = slice(start, start + size)
        ds = d[sub]
        b = len(ds)
        a, F = _gram(ds, lay).reshape(b, -1), buffer[:b]
        for s, noise_var in enumerate(noise_vars):
            F.fill(0.0)
            F[:, lay.band_dst] = a
            F[:, lay.pad_dst] = 1.0
            F[:, lay.diag_dst] += noise_var
            F[:, lay.vec] = r[sub, s].reshape(b, -1)
            _cyclic_reduction(F.reshape(b, lay.nb, lay.m, lay.width), lay.m)
            # one (b R, ell_max + 1, N) product, summed over the delays as one stack
            u = ds.conj()[:, None] * F[:, lay.vec].reshape(b, R, 1, N)
            x[sub, s] = u.reshape(b * R, -1)[:, lay.adjoint_src].sum(axis=1).reshape(b, R, N)
    return x


def _check_spec(spec: WaveformSpec, N: int) -> None:
    """Raise ValueError for another block size, or for OTFS pulses without
    T_tx = T_rx^H (modem)."""
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
    """Zero-forcing: x_hat = demodulate(H^{-1} r) = G^{-1} y (module docstring).

    r is a CP-stripped block (N,) or an (S, N) stack through one channel;
    x_hat has its shape. Raises SingularChannelError when cond(H) > 1e12.
    The one-frame case of a BER chunk's ZF: H's diagonals, _zf_guard, one
    LU for all rows (_zf_solve), demodulate.
    """
    r = _received(spec, chan, r)
    d = delay_diagonals(chan, spec.wrap)
    _zf_guard(d[None, None])
    return demodulate(spec, _zf_solve(d[None], r[None])[0])


def equalize_lmmse(
    spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray, noise_var: float
) -> np.ndarray:
    """LMMSE: x_hat = demodulate(H^H (H H^H + s2 I)^{-1} r) = G^H (G G^H + s2 I)^{-1} y,
    by block cyclic reduction of folded A (module docstring).

    r is a CP-stripped block (N,) or an (S, N) stack through one channel;
    x_hat has its shape. O(N m^2); no N x N array unless N <= 96.
    """
    r = _received(spec, chan, r)
    d = delay_diagonals(chan, spec.wrap)
    rows = r.reshape(-1, 1, 1, spec.n)  # one frame per block: one point, one column each
    x = _lmmse_sweep(np.broadcast_to(d, (len(rows), *d.shape)), rows, [noise_var])
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


def _chunks(count: int, N: int, rows: int) -> list[range]:
    """Indices 0..count-1, BER frames or sensing trials, in the chunks
    _draw_frames draws: as many per chunk as keep `rows` length-N rows each,
    its largest O(N) stack, within _CHUNK_ENTRIES (_stack_size)."""
    size = _stack_size(rows * N)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _draw_frames(specs, chan_config: ChannelConfig, constellation: Constellation,
                 snrs, doppler_mode: str, seed: int, keys) -> tuple:
    """The frames of substream keys `keys` (module docstring), one row per
    frame, for the waveforms specs of one block size N: ((gains, delays,
    dopplers), each (B, P); [(group, H's (B, ell_max + 1, N) diagonals)]
    per prefix group; the (B, N bits_per_symbol) bits; [(prefixed samples
    (B, N + cp_len), received blocks (B, S, N) at the points snrs)] per
    spec). Pure; a sweep of +inf points alone draws no noise.
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
    diagonals = [
        (group, _stack_diagonals(chan_config.ell_max, *paths, specs[group[0]].wrap))
        for group in _prefix_groups(specs)
    ]
    # the transmit channel: H's plain diagonals, a group's own if its prefix vector is ones
    ones = [d for group, d in diagonals if np.all(specs[group[0]].wrap == 1)]
    plain = ones[0] if ones else _stack_diagonals(chan_config.ell_max, *paths, np.ones(N))
    noise = [None if snr == np.inf else _noise(normals, snr) for snr in snrs]
    stacks = []
    for spec in specs:
        s_cp = prepend_cp(spec, modulate(spec, x))
        r0 = _transmit(plain, paths[1], s_cp)
        stacks.append((s_cp, np.stack([r0 if z is None else r0 + z for z in noise], axis=1)))
    return paths, diagonals, bits, stacks


def _prefix_groups(specs) -> list[list[int]]:
    """Indices of specs grouped by bitwise equal prefix vectors (spec.wrap),
    in order of first appearance: one group sees one H. OFDM, OTFS and a
    tuned AFDM at even N have ones (modem.AfdmSpec.wrap)."""
    groups: dict[bytes, list[int]] = {}
    for w, spec in enumerate(specs):
        groups.setdefault(spec.wrap.tobytes(), []).append(w)
    return list(groups.values())


def _run_frames(specs, chan_config: ChannelConfig, constellation: Constellation,
                snrs, detector: str, doppler_mode: str, seed: int, frames: range):
    """Monte Carlo frames `frames`, one draw chunk (_chunks), of every
    waveform of specs at the SNR points snrs as stacks: drawn, modulated,
    sent, demodulated, demapped and counted once per chunk, and cut into
    sub-stacks only by the solvers (_zf_guard, _zf_solve, _lmmse_sweep);
    returns (bit errors (W, B, S), papr_db (W, B)) for W = len(specs)."""
    _, diagonals, bits, stacks = _draw_frames(
        specs, chan_config, constellation, snrs, doppler_mode, seed, [(i,) for i in frames]
    )
    errors = np.empty((len(specs), len(frames), len(snrs)), dtype=np.intp)
    sent = _labels(bits, constellation.bits_per_symbol)[:, None]  # (B, 1, N)

    def count(w, x_hat):
        """Bit errors of waveform w's (B, S, N) estimates, counted as soon as they exist."""
        errors[w] = _bit_errors(x_hat, sent, constellation)

    if detector == "zf":
        # one guard for the chunk's groups and frames, the first refusal in
        # frame and then group order raising, before any solve
        _zf_guard(np.stack([d for _, d in diagonals]))
    for group, d in diagonals:
        # per chunk and prefix group, the (B, S, R, N) blocks of its R waveforms:
        # ZF makes one LU per frame for all S R of them, LMMSE one Gram and
        # then one reduction per point with a right-hand side per waveform
        r = np.stack([stacks[w][1] for w in group], axis=2)
        if detector == "zf":
            z = _zf_solve(d, r)
        else:
            z = _lmmse_sweep(d, r, [_noise_var(snr) for snr in snrs])
        for k, w in enumerate(group):
            count(w, demodulate(specs[w], z[:, :, k]))
    return errors, np.stack([_papr_db(s_cp) for s_cp, _ in stacks])


_DETECTORS = ("zf", "lmmse")


def _ber_sweep(specs, chan_config: ChannelConfig, constellation: Constellation,
               snrs, frames: int, detector: str = "lmmse", seed: int = 0,
               doppler_mode: str = "fractional") -> list[list[LinkResult]]:
    """Monte Carlo BER of each waveform of specs at each SNR point of snrs:
    per spec, one LinkResult per point, in order (module docstring).

    A point of +inf runs noiseless. Raises ValueError, before the first
    frame, for a NaN or -inf point, frames < 1, an unknown detector or a
    spec that fails _check_spec; and SingularChannelError for the first ZF
    frame with cond(H) > 1e12.
    """
    for snr_db in snrs:
        _check_snr(snr_db)
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if detector not in _DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    for spec in specs:
        _check_spec(spec, chan_config.N)
    # the chunk's largest O(N) stacks: the (B, S, R, N) received blocks and the
    # (B, groups, ell_max + 1, N) diagonals
    rows = max(len(snrs) * len(specs), len(_prefix_groups(specs)) * (chan_config.ell_max + 1))
    results = [
        _run_frames(specs, chan_config, constellation, snrs, detector, doppler_mode, seed, chunk)
        for chunk in _chunks(frames, chan_config.N, rows)
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
    """Monte Carlo BER at one SNR point: the one-point, one-waveform _ber_sweep,
    with its errors. Raises ValueError for threads < 1, its only effect.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return _ber_sweep([spec], chan_config, constellation, [snr_db], frames, detector, seed, doppler_mode)[0][0]

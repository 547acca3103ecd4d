"""Communication-side measurement: constellations, AWGN, equalizers, BER.

Both equalizers run on the time-domain channel H, never on the symbol-domain
G = T_rx . H . T_tx: every modem has T_tx = T_rx^H with T_rx unitary, so ZF is
G^{-1} y = demodulate(H^{-1} r) and LMMSE is demodulate(H^H (H H^H + s2 I)^{-1} r)
for the CP-stripped received block r. H has only ell_max + 1 populated cyclic
diagonals. LMMSE forms the 2 ell_max + 1 cyclic diagonals of H H^H + s2 I and
solves them by block elimination after a fold permutation: O(N m^2) for
blocks of m >= 2 ell_max + 1 rows (at least 20), so linear in N. ZF solves
the folded dense H in O(N^3), behind the same guard as the symbol-domain
solve it replaces: it refuses when cond(H) = cond(G) exceeds 1e12. A
Cholesky of H H^H - t I, with t a rounding-error margin, certifies
cond(H) <= about 1e6 without an SVD; only a frame it does not clear runs the
exact np.linalg.cond test, so every frame is accepted or refused as the
SVD alone would decide.

The BER Monte Carlo draws each frame from its own RNG substream and runs
the frames of an SNR point in fixed chunks of about 2^16 / N^2 frames, each
chunk as (B, N) stacks through one copy of the pipeline. The public
single-block functions call the same stacked code with B = 1. ZF is the
exception: its guard decides frame by frame, so each frame of a chunk
goes through the public equalize_zf, and a refusal raises from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelRealization,
    _apply_samples,
    _path_arrays,
    _stack_diagonals,
    delay_diagonals,
    sample_paths,
)
from .modem import OtfsSpec, WaveformSpec, _papr_db, _prepend_cp


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
    half-bandwidth), padded by an identity to nb * m rows. The diagonal
    blocks gather a.ravel()[diag_src] into diag_dst of an (nb, m, m) array,
    the blocks below them gather low_src into low_dst of an (nb - 1, m, m)
    array; the blocks above are their conjugate transposes. Band entry k is
    entry dense_dst[k] of the whole folded A, flattened.
    """

    perm: np.ndarray
    # A's diagonal at offset o holds A[n, (n - o) mod N] = sum over pairs e - e' = o
    # of d[e][n] * conj(d[e'])[(n - o) mod N]: pair k reads d[pair_e[k]] and
    # conj(d).ravel()[pair_src[k]], and sums into row pair_slot[k] (offsets mod N)
    pair_e: np.ndarray
    pair_src: np.ndarray
    pair_slot: np.ndarray  # (offsets mod N, pairs) 0/1 matrix
    slot0: int  # row of the main diagonal
    dense_dst: np.ndarray
    nb: int
    m: int
    diag_src: np.ndarray
    diag_dst: np.ndarray
    low_src: np.ndarray
    low_dst: np.ndarray
    pad_dst: np.ndarray


# Block elimination makes one LAPACK solve with m + 1 right-hand sides per
# block of m rows. Its cost per row, (call overhead + O(m^3)) / m, is least
# near m = _BLOCK_ROWS, so blocks are that size unless the band is wider; up
# to _ONE_BLOCK_ROWS rows a single solve with one right-hand side is cheaper.
_BLOCK_ROWS = 20
_ONE_BLOCK_ROWS = 96


@lru_cache(maxsize=16)
def _band_layout(N: int, ell_max: int) -> _BandLayout:
    perm, inv = _fold(N)
    offsets = sorted({o % N for o in range(-ell_max, ell_max + 1)})
    n = np.arange(N)
    e, e2 = (g.ravel() for g in np.indices((ell_max + 1, ell_max + 1)))
    pair_slot = np.zeros((len(offsets), e.size))
    pair_slot[np.searchsorted(offsets, (e - e2) % N), np.arange(e.size)] = 1.0
    # band entry k: row n = k % N of diagonal k // N, at folded (i[k], j[k])
    src = np.arange(len(offsets) * N)
    i = np.tile(inv, len(offsets))
    j = inv[(n[None, :] - np.asarray(offsets)[:, None]) % N].ravel()
    half_width = int(np.max(np.abs(i - j)))
    nb = 1 if N <= _ONE_BLOCK_ROWS else max(1, N // max(half_width, _BLOCK_ROWS))
    m = -(-N // nb)
    bi, bj = i // m, j // m
    diag, low = bi == bj, bi == bj + 1
    pad = np.arange(N, nb * m)
    return _BandLayout(
        perm=perm,
        pair_e=e,
        pair_src=e2[:, None] * N + (n[None, :] - (e - e2)[:, None]) % N,
        pair_slot=pair_slot,
        slot0=offsets.index(0),
        dense_dst=i * N + j,
        nb=nb,
        m=m,
        diag_src=src[diag],
        diag_dst=i[diag] * m + j[diag] % m,
        low_src=src[low],
        low_dst=(bj[low] * m + i[low] % m) * m + j[low] % m,
        pad_dst=pad * m + pad % m,
    )


def _gram(d: np.ndarray, lay: _BandLayout) -> np.ndarray:
    """The cyclic diagonals of H H^H, (B, offsets, N), from a (B, ell_max + 1, N) stack of H's."""
    return lay.pair_slot @ (d[:, lay.pair_e] * d.conj().reshape(d.shape[0], -1)[:, lay.pair_src])


# The ZF guard refuses H when cond(H) > 1e12. An SVD decides that exactly but
# costs more than the solve, so a Cholesky certificate runs first (Rump,
# "Verification of positive definiteness," BIT 46, 2006). Let A = H H^H,
# u = 2^-53 and gamma_k = k u / (1 - k u); complex arithmetic adds two units
# per inner product (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., §3.6). The certificate factors M = fl(A) - t I with t = tau_N tr(A):
#   - each entry of fl(A) sums at most N products, so fl(A) - A is at most
#     gamma_{N+2} |H| |H|^H entrywise and gamma_{N+2} ||H||_F^2 = gamma_{N+2} tr(A)
#     in 2-norm;
#   - subtracting t rounds each diagonal entry once: u (A_ii + t);
#   - if the Cholesky of M runs to completion, R^H R = M + dM with
#     |dM| <= gamma_{N+3} |R^H| |R| (§10.1, Theorem 10.3), and
#     || |R^H| |R| ||_2 <= ||R||_F^2 <= tr(M) / (1 - gamma_{N+3}).
# So R^H R = A - t I + E with ||E||_2 <= (2N + 6) u tr(A) to first order.
# tau_N = (4N + 64) u is more than twice that, with room for the second-order
# terms and the rounding of tr(A), so R^H R >= 0 gives lambda_min(A) >= t / 2
# and cond(H)^2 = cond(A) <= tr(A) / lambda_min(A) <= 2 / tau_N: cond(H) <= 7.5e6
# at N = 64 and less at larger N. An SVD of such an H cannot report a
# condition number near 1e12, so the exact test accepts every certified
# frame. The bounds assume no underflow or overflow: frames whose trace lies
# outside (1e-200, 1e200) get no certificate.
def _certified(d: np.ndarray) -> bool:
    """True if the certificate above proves cond(H) <= sqrt(2 / tau_N) for
    H's (ell_max + 1, N) diagonals d."""
    N = d.shape[1]
    lay = _band_layout(N, d.shape[0] - 1)
    a = _gram(d[None], lay)[0]
    trace = a[lay.slot0].real.sum()
    if not 1e-200 < trace < 1e200:
        return False
    a[lay.slot0] -= (4 * N + 64) * 2.0**-53 * trace
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
    with cond(H) > 1e12 is refused: an H the certificate clears needs no
    SVD, any other H gets the exact np.linalg.cond test.
    """
    N = r.size
    lay = _band_layout(N, d.shape[0] - 1)
    # offsets 0..ell_max come first, so H's diagonals are the band's first rows
    H = np.zeros(N * N, dtype=complex)
    H[lay.dense_dst[: d.size]] = d.ravel()
    H = H.reshape(N, N)
    if not _certified(d):
        cond = np.linalg.cond(H)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularChannelError(f"channel condition number {cond:.3e} exceeds 1e12")
    z = np.empty(N, dtype=complex)
    z[lay.perm] = np.linalg.solve(H, r[lay.perm])
    return z


def _lmmse_solve(d: np.ndarray, r: np.ndarray, noise_var: float) -> np.ndarray:
    """H^H (H H^H + s2 I)^{-1} r for a (B, ell_max + 1, N) stack of H's diagonals.

    The layout depends only on (N, ell_max), so each block elimination step
    solves one (B, m, m) stack.
    """
    B, N = r.shape
    ell_max = d.shape[1] - 1
    lay = _band_layout(N, ell_max)
    a = _gram(d, lay)
    a[:, lay.slot0] += noise_var
    a = a.reshape(B, -1)

    nb, m = lay.nb, lay.m
    diag = np.zeros((B, nb * m * m), dtype=complex)
    diag[:, lay.diag_dst] = a[:, lay.diag_src]
    diag[:, lay.pad_dst] = 1.0
    diag = diag.reshape(B, nb, m, m)
    low = np.zeros((B, (nb - 1) * m * m), dtype=complex)
    low[:, lay.low_dst] = a[:, lay.low_src]
    low = low.reshape(B, nb - 1, m, m)
    # w[:, i] = [A_{i,i+1} | rhs_i], overwritten in place by D_i^{-1} w[:, i]
    w = np.empty((B, nb, m, m + 1), dtype=complex)
    w[:, :-1, :, :m] = low.conj().swapaxes(-1, -2)
    rhs = np.zeros((B, nb * m), dtype=complex)
    rhs[:, :N] = r[:, lay.perm]
    w[..., m] = rhs.reshape(B, nb, m)
    D = diag[:, 0]
    for i in range(nb - 1):
        w[:, i] = np.linalg.solve(D, w[:, i])
        t = low[:, i] @ w[:, i]
        D = diag[:, i + 1] - t[..., :m]
        w[:, i + 1, :, m] -= t[..., m]
    x = np.empty((B, nb, m), dtype=complex)
    x[:, -1] = np.linalg.solve(D, w[:, -1, :, m:])[..., 0]
    for i in range(nb - 2, -1, -1):
        x[:, i] = w[:, i, :, m] - (w[:, i, :, :m] @ x[:, i + 1, :, None])[..., 0]
    z = np.empty((B, N), dtype=complex)
    z[:, lay.perm] = x.reshape(B, -1)[:, :N]
    # H^H z: entry k gathers conj(d[e][k + e]) * z[k + e] over every diagonal e
    u = d.conj() * z[:, None]
    out = u[:, 0].copy()
    for e in range(1, ell_max + 1):
        out += np.roll(u[:, e], -e, axis=-1)
    return out


def _check_sizes(spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray) -> None:
    if chan.config.N != spec.n:
        raise ValueError(f"channel block size {chan.config.N} != waveform size {spec.n}")
    if r.shape != (spec.n,):
        raise ValueError(f"received block must have length {spec.n}, got {r.shape}")


def equalize_zf(spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray) -> np.ndarray:
    """Zero-forcing on the time-domain channel: x_hat = demodulate(H^{-1} r) = G^{-1} y.

    r is the CP-stripped received block. H is solved densely in the fold
    permutation's banded order. Refuses channels with cond(H) = cond(G) >
    1e12; a Cholesky certificate clears well-conditioned channels without
    an SVD (see _certified).
    """
    r = np.asarray(r)
    _check_sizes(spec, chan, r)
    d = delay_diagonals(chan, spec.wrap)
    return spec._rx(_zf_solve(d, r))


def equalize_lmmse(
    spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray, noise_var: float
) -> np.ndarray:
    """LMMSE on the time-domain channel: x_hat = demodulate(H^H (H H^H + s2 I)^{-1} r).

    This equals G^H (G G^H + s2 I)^{-1} y, because T_tx = T_rx^H with T_rx
    unitary. A = H H^H + s2 I has 2 ell_max + 1 cyclic diagonals, formed in
    O(N ell_max^2); folded, it is block tridiagonal and Hermitian positive
    definite, so block elimination needs no pivoting across blocks and costs
    O(N m^2) for blocks of m rows. No N x N array is formed unless N is one block.
    """
    r = np.asarray(r)
    _check_sizes(spec, chan, r)
    d = delay_diagonals(chan, spec.wrap)
    return spec._rx(_lmmse_solve(d[None], r[None], noise_var)[0])


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


def _run_frames(
    spec: WaveformSpec,
    chan_config: ChannelConfig,
    constellation: Constellation,
    snr_db: float,
    detector: str,
    doppler_mode: str,
    seed: int,
    frames: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo frames `frames` as (B, N) stacks; returns (bit errors, papr_db) per frame."""
    N, B = spec.n, len(frames)
    gains = np.empty((B, chan_config.P), dtype=complex)
    delays = np.empty((B, chan_config.P), dtype=np.intp)
    dopplers = np.empty((B, chan_config.P))
    bits = np.empty((B, N * constellation.bits_per_symbol), dtype=int)
    normals = np.empty((B, N, 2))
    noisy = snr_db != np.inf
    chans = []
    for b, i in enumerate(frames):
        # frame i draws channel, bits and noise, in this order, from its own substream
        rng = substream(seed, i)
        chans.append(sample_paths(chan_config, doppler_mode, rng))
        gains[b], delays[b], dopplers[b] = _path_arrays(chans[-1].paths)
        bits[b] = rng.integers(0, 2, size=bits.shape[1])
        if noisy:
            normals[b] = rng.standard_normal((N, 2))
    s_cp = _prepend_cp(spec, spec._tx(map_bits(bits.ravel(), constellation).reshape(B, N)))
    r = _apply_samples(s_cp, N, gains, delays, dopplers)
    if noisy:
        r = r + _noise(normals, snr_db)
    if detector == "zf":
        # one public call per frame, in frame order: the first frame with
        # cond(H) > 1e12 raises from equalize_zf, as a lone block would
        x_hat = np.stack([equalize_zf(spec, chan, r_b) for chan, r_b in zip(chans, r)])
    else:
        d = _stack_diagonals(N, chan_config.ell_max, gains, delays, dopplers, spec.wrap)
        x_hat = spec._rx(_lmmse_solve(d, r, _noise_var(snr_db)))
    bits_hat = demap_symbols(x_hat.ravel(), constellation)
    errors = np.count_nonzero((bits_hat != bits.ravel()).reshape(B, -1), axis=1)
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
    demapping as (B, N) stacks, so the chunk size changes no result. ZF
    equalizes the chunk's frames one by one through equalize_zf, in frame
    order: a Cholesky certificate clears a well-conditioned H without an
    SVD, any other H gets the exact cond(H) > 1e12 test, and the first
    refused frame raises SingularChannelError. snr_db = +inf runs noiseless;
    NaN and -inf raise ValueError before the first frame. `threads` must be
    >= 1 and has no other effect.
    """
    _check_snr(snr_db)
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if detector not in ("zf", "lmmse"):
        raise ValueError(f"unknown detector {detector!r}")
    if chan_config.N != spec.n:
        raise ValueError(f"channel block size {chan_config.N} != waveform size {spec.n}")
    if isinstance(spec, OtfsSpec) and not spec.adjoint_pulses:
        raise ValueError(
            "time-domain equalization needs pulse_tx = conj(pulse_rx) with |pulse_rx| = 1"
        )
    chunk = max(1, _CHUNK_ENTRIES // spec.n**2)
    results = [
        _run_frames(
            spec, chan_config, constellation, snr_db, detector, doppler_mode, seed,
            range(start, min(start + chunk, frames)),
        )
        for start in range(0, frames, chunk)
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

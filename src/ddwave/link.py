"""Communication-side measurement: constellations, AWGN, equalizers, BER.

Both equalizers run on the time-domain channel H, never on the symbol-domain
G = T_rx . H . T_tx: every modem has T_tx = T_rx^H with T_rx unitary, so ZF is
G^{-1} y = demodulate(H^{-1} r) and LMMSE is demodulate(H^H (H H^H + s2 I)^{-1} r)
for the CP-stripped received block r. H has only ell_max + 1 populated cyclic
diagonals. LMMSE forms the 2 ell_max + 1 cyclic diagonals of H H^H + s2 I and
solves them by block elimination after a fold permutation: O(N m^2) for
blocks of m >= 2 ell_max + 1 rows (at least 20), so linear in N. ZF solves
the folded dense H in O(N^3), behind the same guard as the symbol-domain
solve it replaces: it refuses when cond(H) = cond(G) exceeds 1e12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelRealization,
    delay_diagonals,
    sample_paths,
    time_domain_apply,
)
from .modem import OtfsSpec, WaveformSpec, demodulate, measure_papr, modulate, prepend_cp


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


def add_awgn(r: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise at variance 10^(-snr/10) per sample.

    snr_db = inf means no noise (signal power is unit by the unitary chain).
    """
    r = np.asarray(r)
    if np.isinf(snr_db):
        return r.copy()
    sigma2 = 10.0 ** (-snr_db / 10.0)
    w = rng.standard_normal((r.size, 2)) @ np.array([1.0, 1.0j]) * np.sqrt(sigma2 / 2.0)
    return r + w.reshape(r.shape)


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


@lru_cache(maxsize=16)
def _zf_layout(N: int, ell_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, flat): entry n of H's diagonal ell lands at flat[ell, n] of the folded H."""
    perm, inv = _fold(N)
    n = np.arange(N)
    cols = (n[None, :] - np.arange(ell_max + 1)[:, None]) % N
    return perm, inv * N + inv[cols]


@dataclass(frozen=True)
class _BandLayout:
    """Where the diagonals of A = H H^H + s2 I go in the blocks of the folded A.

    Folded A is block tridiagonal with nb blocks of m rows (m at least its
    half-bandwidth), padded by an identity to nb * m rows. The diagonal
    blocks gather a.ravel()[diag_src] into diag_dst of an (nb, m, m) array,
    the blocks below them gather low_src into low_dst of an (nb - 1, m, m)
    array; the blocks above are their conjugate transposes.
    """

    perm: np.ndarray
    # A's diagonal at offset o holds A[n, (n - o) mod N] = sum over pairs e - e' = o
    # of d[e][n] * conj(d[e'])[(n - o) mod N]: pair k reads d[pair_e[k]] and
    # conj(d).ravel()[pair_src[k]], and sums into row pair_slot[k] (offsets mod N)
    pair_e: np.ndarray
    pair_src: np.ndarray
    pair_slot: np.ndarray  # (offsets mod N, pairs) 0/1 matrix
    slot0: int  # row of the main diagonal
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
def _lmmse_layout(N: int, ell_max: int) -> _BandLayout:
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
        nb=nb,
        m=m,
        diag_src=src[diag],
        diag_dst=i[diag] * m + j[diag] % m,
        low_src=src[low],
        low_dst=(bj[low] * m + i[low] % m) * m + j[low] % m,
        pad_dst=pad * m + pad % m,
    )


def _check_sizes(spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray) -> None:
    if chan.config.N != spec.n:
        raise ValueError(f"channel block size {chan.config.N} != waveform size {spec.n}")
    if r.shape != (spec.n,):
        raise ValueError(f"received block must have length {spec.n}, got {r.shape}")


def equalize_zf(spec: WaveformSpec, chan: ChannelRealization, r: np.ndarray) -> np.ndarray:
    """Zero-forcing on the time-domain channel: x_hat = demodulate(H^{-1} r) = G^{-1} y.

    r is the CP-stripped received block. H's diagonals are scattered straight
    into the folded layout, whose band keeps the growth of partial pivoting
    bounded, and solved densely. Refuses channels with cond(H) = cond(G) > 1e12.
    """
    r = np.asarray(r)
    _check_sizes(spec, chan, r)
    N = spec.n
    perm, flat = _zf_layout(N, chan.config.ell_max)
    H = np.zeros(N * N, dtype=complex)
    H[flat] = delay_diagonals(chan, spec.cp_phase())
    H = H.reshape(N, N)
    cond = np.linalg.cond(H)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularChannelError(f"channel condition number {cond:.3e} exceeds 1e12")
    z = np.empty(N, dtype=complex)
    z[perm] = np.linalg.solve(H, r[perm])
    return demodulate(spec, z)


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
    N = spec.n
    ell_max = chan.config.ell_max
    lay = _lmmse_layout(N, ell_max)
    d = delay_diagonals(chan, spec.cp_phase())
    dc = d.conj()
    a = lay.pair_slot @ (d[lay.pair_e] * dc.ravel()[lay.pair_src])
    a[lay.slot0] += noise_var
    a = a.ravel()

    nb, m = lay.nb, lay.m
    diag = np.zeros(nb * m * m, dtype=complex)
    diag[lay.diag_dst] = a[lay.diag_src]
    diag[lay.pad_dst] = 1.0
    diag = diag.reshape(nb, m, m)
    low = np.zeros((nb - 1) * m * m, dtype=complex)
    low[lay.low_dst] = a[lay.low_src]
    low = low.reshape(nb - 1, m, m)
    # w[i] = [A_{i,i+1} | rhs_i], overwritten in place by D_i^{-1} w[i]
    w = np.empty((nb, m, m + 1), dtype=complex)
    w[:-1, :, :m] = low.conj().transpose(0, 2, 1)
    rhs = np.zeros(nb * m, dtype=complex)
    rhs[:N] = r[lay.perm]
    w[:, :, m] = rhs.reshape(nb, m)
    D = diag[0]
    for i in range(nb - 1):
        w[i] = np.linalg.solve(D, w[i])
        t = low[i] @ w[i]
        D = diag[i + 1] - t[:, :m]
        w[i + 1, :, m] -= t[:, m]
    x = np.empty((nb, m), dtype=complex)
    x[-1] = np.linalg.solve(D, w[-1, :, m])
    for i in range(nb - 2, -1, -1):
        x[i] = w[i, :, m] - w[i, :, :m] @ x[i + 1]
    z = np.empty(N, dtype=complex)
    z[lay.perm] = x.reshape(-1)[:N]
    # H^H z: entry k gathers conj(d[e][k + e]) * z[k + e] over every diagonal e
    u = dc * z
    out = u[0].copy()
    for e in range(1, ell_max + 1):
        out += np.roll(u[e], -e)
    return demodulate(spec, out)


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


def _run_frame(
    spec: WaveformSpec,
    chan_config: ChannelConfig,
    constellation: Constellation,
    snr_db: float,
    detector: str,
    doppler_mode: str,
    seed: int,
    frame_idx: int,
) -> tuple[int, float]:
    """One Monte Carlo frame; returns (bit errors, papr_db)."""
    rng = substream(seed, frame_idx)
    chan = sample_paths(chan_config, doppler_mode, rng)
    bits = rng.integers(0, 2, size=spec.n * constellation.bits_per_symbol)
    x = map_bits(bits, constellation)
    s = modulate(spec, x)
    s_cp = prepend_cp(spec, s)
    r = time_domain_apply(s_cp, chan)
    r = add_awgn(r, snr_db, rng)
    if detector == "zf":
        x_hat = equalize_zf(spec, chan, r)
    elif detector == "lmmse":
        noise_var = 0.0 if np.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)
        x_hat = equalize_lmmse(spec, chan, r, noise_var)
    else:
        raise ValueError(f"unknown detector {detector!r}")
    bits_hat = demap_symbols(x_hat, constellation)
    return int(np.sum(bits_hat != bits)), measure_papr(s_cp)


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

    Each frame draws a fresh channel and bit block from an RNG substream
    derived from (seed, frame index), so the result is reproducible to the
    byte. Frames run serially: a thread pool measured no faster at any tested
    size. `threads` must be >= 1 and has no other effect.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if isinstance(spec, OtfsSpec) and not spec.adjoint_pulses:
        raise ValueError(
            "time-domain equalization needs pulse_tx = conj(pulse_rx) with |pulse_rx| = 1"
        )
    results = [
        _run_frame(spec, chan_config, constellation, snr_db, detector, doppler_mode, seed, i)
        for i in range(frames)
    ]
    errors = sum(e for e, _ in results)
    paprs = [p for _, p in results]
    total_bits = frames * spec.n * constellation.bits_per_symbol
    return LinkResult(
        snr_db=snr_db,
        frames=frames,
        bit_errors=errors,
        ber=errors / total_bits,
        papr_db_p99=float(np.percentile(paprs, 99)),
    )

"""The three waveform chains: OFDM, OTFS and AFDM.

This is the one module that knows how a waveform transforms. Each spec owns
its transforms, FFTs with norm="ortho" and diagonal factors (no N x N
matrix), and its prefix vector `wrap` (AfdmSpec.wrap). The transforms, and
modulate, demodulate and prepend_cp over them, map a block or a stack of
blocks along the last axis. On top sit the effective channel, AFDM chirp
tuning, the orthogonality predicates and integer-Doppler support prediction.

Every receive transform T_rx is unitary and every transmit transform is its
adjoint, T_tx = T_rx^H; OTFS only when pulse_tx = conj(pulse_rx) with
|pulse_rx| = 1 (OtfsSpec.adjoint_pulses). link's equalizers and sensing's
ML search rest on this identity and refuse other pulses (_check_spec).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelRealization, _apply_diagonals, _roots, _turns, delay_diagonals


@lru_cache(maxsize=16)
def chirp_phases(N: int, c: float) -> np.ndarray:
    """The chirp diagonal exp(-j2pi c n^2), n = 0..N-1, read-only and cached
    per (N, c); the phase is reduced exactly (_cycle_phases). Raises
    ValueError for N < 1."""
    if N < 1:
        raise ValueError(f"chirp size must be >= 1, got {N}")
    n = np.arange(N, dtype=np.int64)
    phases = _cycle_phases(N, c, -n * n)
    phases.flags.writeable = False
    return phases


def _cycle_phases(N: int, c: float, m: np.ndarray) -> np.ndarray:
    """e^{j2pi c m} for an int64 array m, |m| <= 2 N^2, reduced mod 1 exactly.

    If M c is integral (_integral) for M = 2N or else M = 2N^2, c is the
    rational q / M, as every tuned rate is, and the phase is the residue
    q m mod M in integer arithmetic: for M = 2N entry q m mod M of the M-th
    roots of unity, for M = 2N^2 the cycles (q m mod M) / M. Any other c is
    taken as the float it is: Dekker's two-product splits c m into p + e
    exactly, and frac(p) + frac(e) leaves one rounding.
    """
    for M in (2 * N, 2 * N * N):
        q = _integral(M * c)
        if q is None:
            continue
        q, m = q % M, m % M
        # q m mod M in int64 where q m fits (always for M = 2N), else in Python ints
        k = q * m % M if q < 2**63 // M else (q * m.astype(object) % M).astype(np.int64)
        if M == 2 * N:
            return _roots(M)[k]
        return _turns((k - M * (2 * k > M)) / M)
    p, e = _two_product(c, m.astype(float))
    t = (p - np.rint(p)) + (e - np.rint(e))
    return _turns(t - np.rint(t))


def _two_product(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b = p + e exactly, p the rounded product (Dekker, "A Floating-Point
    Technique for Extending the Available Precision", Numer. Math. 1971)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(x):
    """x = hi + lo exactly, each half at most 26 significant bits (Veltkamp)."""
    y = 134217729.0 * x  # 2^27 + 1
    hi = y - (y - x)
    return hi, x - hi


def _integral(x: float) -> int | None:
    """round(x) if x is within 4 ulps of an integer, else None: the one test of
    whether a chirp rate times its denominator (2N c1, 2N^2 c2) is an integer.
    A rate q / M rounded to a float, times M, lands within 2 ulps of q; any
    rate further off is taken as the float it is, so c2 = 1e-12 is not 0."""
    if not math.isfinite(x):
        return None
    r = round(x)
    return r if abs(x - r) <= 4 * math.ulp(x) else None


def _check_sizes(n: int, cp_len: int) -> None:
    """A spec's block and prefix sizes: n >= 1 and cp_len >= 0."""
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    if cp_len < 0:
        raise ValueError(f"prefix length must be >= 0, got {cp_len}")


class _CyclicPrefix:
    """A spec whose prefix is a plain cyclic copy (OfdmSpec, OtfsSpec)."""

    @cached_property
    def wrap(self) -> np.ndarray:
        """Prefix vector of a plain cyclic copy: ones (see AfdmSpec.wrap)."""
        return np.ones(self.n, dtype=complex)


@dataclass(frozen=True)
class OfdmSpec(_CyclicPrefix):
    """Plain multicarrier spec: IDFT transmit, DFT receive."""

    n: int
    cp_len: int = 0

    def __post_init__(self):
        _check_sizes(self.n, self.cp_len)

    def _tx(self, x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(x, norm="ortho")

    def _rx(self, r: np.ndarray) -> np.ndarray:
        return np.fft.fft(r, norm="ortho")


@dataclass(frozen=True)
class OtfsSpec(_CyclicPrefix):
    """Delay-Doppler grid spec, transmit operator (F_L^H kron P_tx).

    The symbol grid X is K x L and is sent column-stacked, so the delay
    axis (size K, paired with the pulse) is the fast index and the Doppler
    axis (size L, paired with F_L) is the slow one. Pulses are diagonal
    K x K, given as length-K vectors; None means rectangular (identity).
    """

    k: int
    l: int
    cp_len: int = 0
    pulse_tx: tuple[complex, ...] | None = None
    pulse_rx: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ValueError(f"grid sizes must be >= 1, got K={self.k}, L={self.l}")
        _check_sizes(self.n, self.cp_len)
        for name, p in (("pulse_tx", self.pulse_tx), ("pulse_rx", self.pulse_rx)):
            if p is not None and len(p) != self.k:
                raise ValueError(f"{name} must have length K={self.k}, got {len(p)}")

    @property
    def n(self) -> int:
        return self.k * self.l

    @cached_property
    def adjoint_pulses(self) -> bool:
        """True iff pulse_tx = conj(pulse_rx) with |pulse_rx| = 1, the pulses
        for which T_tx = T_rx^H (module docstring)."""
        p_tx, p_rx = (
            np.ones(self.k) if p is None else np.asarray(p, dtype=complex)
            for p in (self.pulse_tx, self.pulse_rx)
        )
        return bool(
            np.allclose(p_tx, p_rx.conj(), rtol=0.0, atol=1e-12)
            and np.allclose(np.abs(p_rx), 1.0, rtol=0.0, atol=1e-12)
        )

    def _grid(self, fft, x: np.ndarray, pulse) -> np.ndarray:
        # block index a*K + b -> grid cell (a, b): transform along the L axis,
        # then weight the K axis by the pulse
        y = fft(x.reshape(x.shape[:-1] + (self.l, self.k)), axis=-2, norm="ortho")
        if pulse is not None:
            y *= np.asarray(pulse, dtype=complex)
        return y.reshape(x.shape)

    def _tx(self, x: np.ndarray) -> np.ndarray:
        return self._grid(np.fft.ifft, x, self.pulse_tx)

    def _rx(self, r: np.ndarray) -> np.ndarray:
        return self._grid(np.fft.fft, r, self.pulse_rx)


@dataclass(frozen=True)
class AfdmSpec:
    """Chirp-twisted spec: transmit A^H with A = Lambda_c2 . F_N . Lambda_c1."""

    n: int
    c1: float
    c2: float
    xi: int = 0
    cp_len: int = 0

    def __post_init__(self):
        _check_sizes(self.n, self.cp_len)
        if self.xi < 0:
            raise ValueError(f"guard width must be >= 0, got {self.xi}")
        if not (np.isfinite(self.c1) and np.isfinite(self.c2)):
            raise ValueError("chirp rates must be finite")

    @cached_property
    def _chirps(self) -> tuple[np.ndarray, ...]:
        """Lambda_c1 and Lambda_c2 diagonals and their conjugates, computed once per spec."""
        ch1, ch2 = chirp_phases(self.n, self.c1), chirp_phases(self.n, self.c2)
        return ch1, ch2, ch1.conj(), ch2.conj()

    def _tx(self, x: np.ndarray) -> np.ndarray:
        _, _, ch1_conj, ch2_conj = self._chirps
        y = np.fft.ifft(ch2_conj * x, norm="ortho")
        y *= ch1_conj
        return y

    def _rx(self, r: np.ndarray) -> np.ndarray:
        ch1, ch2, _, _ = self._chirps
        y = np.fft.fft(ch1 * r, norm="ortho")
        y *= ch2
        return y

    @cached_property
    def wrap(self) -> np.ndarray:
        """Prefix vector: entry N + n' is e^{j2pi c1 (N^2 + 2 N n')}, the factor a
        sample picks up when it wraps from index N + n' to n' = -N..-1. The
        transmitter (prepend_cp), H's diagonals and the ML search read it.

        The phase is reduced exactly (_cycle_phases). For 2 N c1 = q integral,
        as for tuned rates, it is q N^2 / 2N mod 1: every entry is exactly 1
        at even N or even q, else exactly -1, and the prefix is chirp-periodic.
        """
        n_prime = np.arange(-self.n, 0, dtype=np.int64)
        return _cycle_phases(self.n, self.c1, self.n * (self.n + 2 * n_prime))

    @property
    def delay_stride(self) -> int:
        """Diagonal shift contributed per unit delay: 2*N*c1, an integer for tuned c1."""
        return _delay_stride(self.n, self.c1)


def _delay_stride(n: int, c1: float) -> int:
    stride = _integral(2.0 * n * c1)
    if stride is None:
        raise ValueError(f"support prediction needs 2*N*c1 integral, got 2*N*c1 = {2.0 * n * c1}")
    return stride


WaveformSpec = OfdmSpec | OtfsSpec | AfdmSpec


def _check_block(spec: WaveformSpec, N: int) -> None:
    """Raise ValueError unless a channel's block size N is the spec's."""
    if N != spec.n:
        raise ValueError(f"channel block size {N} != waveform size {spec.n}")


def _check_spec(spec: WaveformSpec, N: int) -> None:
    """_check_block, and ValueError for OTFS pulses without T_tx = T_rx^H
    (module docstring): what time-domain processing needs."""
    _check_block(spec, N)
    if isinstance(spec, OtfsSpec) and not spec.adjoint_pulses:
        raise ValueError(
            "time-domain processing needs pulse_tx = conj(pulse_rx) with |pulse_rx| = 1"
        )


def _blocks(spec: WaveformSpec, a, what: str) -> np.ndarray:
    """a as an array of N-sample blocks along its last axis; only that axis is checked."""
    a = np.asarray(a)
    if a.shape[-1:] != (spec.n,):
        raise ValueError(f"{what} must have length {spec.n}, got {a.shape}")
    return a


def modulate(spec: WaveformSpec, x: np.ndarray) -> np.ndarray:
    """Map blocks of N symbols to N time-domain samples (unitary), along the last axis."""
    return spec._tx(_blocks(spec, x, "symbol block"))


def demodulate(spec: WaveformSpec, r: np.ndarray) -> np.ndarray:
    """Map blocks of N received samples (CP already stripped) back to the
    symbol domain, along the last axis."""
    return spec._rx(_blocks(spec, r, "received block"))


def prepend_cp(spec: WaveformSpec, s: np.ndarray) -> np.ndarray:
    """Prepend the cyclic prefix to blocks along the last axis: (..., N) -> (..., N + cp_len).

    Prefix sample at index n' in {-cp_len..-1} equals s[N+n'] * spec.wrap[N+n']:
    a plain copy for OFDM/OTFS, the chirp-periodic prefix for AFDM.
    """
    s = _blocks(spec, s, "block")
    start = spec.n - spec.cp_len
    if start < 0:
        raise ValueError(f"prefix longer than the block: cp_len {spec.cp_len} > N {spec.n}")
    return np.concatenate([s[..., start:] * spec.wrap[start:], s], axis=-1)


def effective_channel(spec: WaveformSpec, chan: ChannelRealization) -> np.ndarray:
    """The (N, N) symbol-domain channel G = T_rx H T_tx, H as its diagonals
    for spec.wrap: noiselessly, demodulate of the channel's output for
    prepend_cp(spec, modulate(spec, x)) is G @ x. O(N^2 log N), no matrix
    product; raises ValueError if the block sizes differ (_check_block).
    """
    _check_block(spec, chan.config.N)
    # row j is the response to unit block e_j, i.e. column j of G; as d holds
    # the prefix factors, each row's history is a plain copy of its tail
    d = delay_diagonals(chan, spec.wrap)
    s = spec._tx(np.eye(spec.n, dtype=complex))
    s = np.concatenate([s[:, spec.n - len(d) + 1 :], s], axis=1)  # frees the first s: a lower peak
    return spec._rx(_apply_diagonals(d, s)).T


def afdm_orthogonality_ok(ell_max: int, f_max: int, xi: int, N: int) -> bool:
    """True iff every (delay, integer Doppler) pair maps to a distinct diagonal.

    The tuned chirp walks the diagonal by 2(f_max+xi)+1 per delay tap and by
    -1 per Doppler bin, so all shifts are distinct exactly when the full span
    (2(f_max+xi)+1)*ell_max + 2*f_max + 1 fits into one period N.
    """
    _check_nonneg(ell_max=ell_max, f_max=f_max, xi=xi, N=N)
    return (2 * (f_max + xi) + 1) * ell_max + 2 * f_max + 1 <= N


def _c1_merges_targets(c1: float, ell_max: int, f_max: int, N: int) -> bool:
    """True iff 2*N*c1 is an integral stride that puts two (delay, integer
    Doppler) pairs of the window on one diagonal (afdm_shift).

    afdm_orthogonality_ok decides separability for the tuned c1; a given c1
    can have any stride. With a stride that is not integral no path sits on
    one diagonal (sensing refuses such a c1), so none merge.
    """
    try:
        shifts = afdm_shift(AfdmSpec(N, c1, 0.0), *np.mgrid[: ell_max + 1, -f_max : f_max + 1])
    except ValueError:
        return False
    return len(np.unique(shifts)) < shifts.size


def otfs_orthogonality_ok(ell_max: int, f_max: int, K: int, L: int) -> bool:
    """True iff delays are identifiable mod K and Dopplers mod L.

    Delay shifts the size-K (pulse) axis and Doppler the size-L (DFT) axis,
    so the support map is injective exactly when ell_max <= K-1 and the
    Doppler window {-f_max..f_max} has at most L distinct values.
    """
    _check_nonneg(ell_max=ell_max, f_max=f_max, K=K, L=L)
    return ell_max <= K - 1 and 2 * f_max + 1 <= L


def _check_nonneg(**kwargs):
    for name, v in kwargs.items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")


def afdm_tune(ell_max: int, f_max: int, xi: int, N: int) -> tuple[float, float]:
    """Chirp rates that make integer-Doppler paths land on disjoint diagonals.

    c1 = (2(f_max+xi)+1) / (2N); c2 is _default_c2(N).
    """
    if not afdm_orthogonality_ok(ell_max, f_max, xi, N):
        raise ValueError(
            f"tuning infeasible: (2({f_max}+{xi})+1)*{ell_max} + 2*{f_max}+1 > {N}"
        )
    return (2 * (f_max + xi) + 1) / (2 * N), _default_c2(N)


def _default_c2(N: int) -> float:
    """The c2 of a tuned chirp, and of a given c1 without c2: 1/(2N^2), well
    below the 1/N scale that matters, and deterministic so runs reproduce."""
    return 1.0 / (2 * N * N)


def predict_support(spec: WaveformSpec, ell: int, f_int: int) -> frozenset[tuple[int, int]]:
    """Exact nonzero positions of a single integer-Doppler path in G.

    AFDM: the cyclic diagonal at col - row = (ell * 2*N*c1 - f_int) mod N.
    OTFS: block (a, (a - f_int) mod L) for every block-row a, each block a
    K x K sub-matrix populated on its cyclic diagonal col - row = -ell mod K.

    Beyond the orthogonality region the patterns still wrap and collide.
    Raises ValueError for OFDM, or unless 0 <= ell < N and |f_int| <= N/2
    (NaN and inf included).
    """
    rows, cols = _support_indices(spec, ell, f_int)
    return frozenset(zip(rows.tolist(), cols.tolist()))


def _support_indices(spec: WaveformSpec, ell, f_int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) index arrays of predict_support, one entry per block row.

    ell and f_int broadcast against each other: scalars give two length-N
    arrays, and candidate arrays of shape (C,) give two (C, N) arrays.
    """
    if isinstance(spec, OfdmSpec):
        raise ValueError("no support predictor for OFDM (Doppler spreads into a band)")
    ell, f_int = np.broadcast_arrays(ell, f_int)
    # the range tests are written so that NaN fails them: a non-finite value is out of range
    if not np.all((ell >= 0) & (ell < spec.n)):
        raise ValueError(f"delay must satisfy 0 <= ell < N, got {ell}")
    if not np.all(np.abs(f_int) <= spec.n // 2):
        raise ValueError(f"integer Doppler {f_int} outside +-N/2")
    shape = ell.shape + (spec.n,)
    ell, f_int = ell[..., None], f_int[..., None]
    rows = np.arange(spec.n)
    if isinstance(spec, AfdmSpec):
        cols = (rows + afdm_shift(spec, ell, f_int)) % spec.n
    else:
        # row a*K + b is cell b of block a
        K, L = spec.k, spec.l
        a, b = np.divmod(rows, K)
        cols = ((a - f_int) % L) * K + (b - ell) % K
    return np.broadcast_to(rows, shape), np.broadcast_to(cols, shape)


def afdm_shift(spec: AfdmSpec, ell: int, f_int: int) -> int:
    """Diagonal index (col - row, mod N) occupied by an integer path."""
    return (ell * (spec.delay_stride % spec.n) - f_int) % spec.n  # a given c1's stride may not fit int64


def measure_papr(s: np.ndarray) -> float:
    """Peak-to-average power ratio of a sequence, in dB."""
    s = np.asarray(s)
    if s.size == 0:
        raise ValueError("PAPR of an empty sequence is undefined")
    return float(_papr_db(s.reshape(-1)))


def _papr_db(s: np.ndarray) -> np.ndarray:
    """measure_papr of each block along the last axis of s."""
    power = np.abs(s) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean == 0):
        raise ValueError("PAPR of an all-zero sequence is undefined")
    return 10.0 * np.log10(power.max(axis=-1) / mean)

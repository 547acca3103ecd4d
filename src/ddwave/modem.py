"""The three waveform chains: OFDM, OTFS and AFDM.

This is the one module that knows how a waveform transforms. Each spec owns
its unitary transmit and receive transforms, written as FFTs with norm="ortho"
and diagonal factors (no N x N matrix), plus its prefix vector `wrap`, which
the prefix, the channel's path operators and the sensing unit responses all
read. The transforms act on blocks along the last axis, so one call maps a
single block or a stack of blocks. On top of them sit the effective-channel
builder, chirp tuning for AFDM, per-waveform orthogonality predicates, and exact
support-pattern prediction for integer-Doppler paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, apply_paths


def chirp_phases(N: int, c: float) -> np.ndarray:
    """Diagonal of the chirp matrix: exp(-j2pi*c*n^2) for n = 0..N-1."""
    if N < 1:
        raise ValueError(f"chirp size must be >= 1, got {N}")
    n = np.arange(N)
    return np.exp(-2j * np.pi * c * n.astype(float) ** 2)


@dataclass(frozen=True)
class OfdmSpec:
    """Plain multicarrier spec: IDFT transmit, DFT receive."""

    n: int
    cp_len: int = 0

    def _tx(self, x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(x, norm="ortho")

    def _rx(self, r: np.ndarray) -> np.ndarray:
        return np.fft.fft(r, norm="ortho")

    @cached_property
    def wrap(self) -> np.ndarray:
        """Prefix vector of a plain cyclic copy: ones (see AfdmSpec.wrap)."""
        return np.ones(self.n, dtype=complex)


@dataclass(frozen=True)
class OtfsSpec:
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
        for name, p in (("pulse_tx", self.pulse_tx), ("pulse_rx", self.pulse_rx)):
            if p is not None and len(p) != self.k:
                raise ValueError(f"{name} must have length K={self.k}, got {len(p)}")

    @property
    def n(self) -> int:
        return self.k * self.l

    @property
    def adjoint_pulses(self) -> bool:
        """True iff pulse_tx = conj(pulse_rx) with |pulse_rx| = 1.

        Exactly then the receive transform is unitary and the transmit
        transform is its adjoint, as it is for every OFDM and AFDM spec.
        """
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

    @cached_property
    def wrap(self) -> np.ndarray:
        """Prefix vector of a plain cyclic copy: ones (see AfdmSpec.wrap)."""
        return np.ones(self.n, dtype=complex)


@dataclass(frozen=True)
class AfdmSpec:
    """Chirp-twisted spec: transmit A^H with A = Lambda_c2 . F_N . Lambda_c1."""

    n: int
    c1: float
    c2: float
    xi: int = 0
    cp_len: int = 0

    def __post_init__(self):
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
        sample picks up when it wraps from index N + n' to n' = -N..-1.

        For 2 N c1 integral (tuned rates) the entries are +-1 and the prefix is
        chirp-periodic; for any c1, the transmitter and channel share this rule.
        """
        n_prime = np.arange(-self.n, 0, dtype=float)
        return np.exp(2j * np.pi * (self.c1 * (self.n**2 + 2.0 * self.n * n_prime)))

    @property
    def delay_stride(self) -> int:
        """Diagonal shift contributed per unit delay: 2*N*c1, an integer for tuned c1."""
        stride = 2.0 * self.n * self.c1
        if abs(stride - round(stride)) > 1e-9:
            raise ValueError(
                f"support prediction needs 2*N*c1 integral, got 2*N*c1 = {stride}"
            )
        return int(round(stride))


WaveformSpec = OfdmSpec | OtfsSpec | AfdmSpec


def modulate(spec: WaveformSpec, x: np.ndarray) -> np.ndarray:
    """Map one block of N symbols to N time-domain samples (unitary)."""
    x = np.asarray(x)
    if x.shape != (spec.n,):
        raise ValueError(f"symbol block must have length {spec.n}, got {x.shape}")
    return spec._tx(x)


def demodulate(spec: WaveformSpec, r: np.ndarray) -> np.ndarray:
    """Map N received samples (CP already stripped) back to the symbol domain."""
    r = np.asarray(r)
    if r.shape != (spec.n,):
        raise ValueError(f"received block must have length {spec.n}, got {r.shape}")
    return spec._rx(r)


def prepend_cp(spec: WaveformSpec, s: np.ndarray) -> np.ndarray:
    """Prepend the cyclic prefix, applying the waveform's prefix vector.

    Prefix sample at index n' in {-cp_len..-1} equals s[N+n'] * spec.wrap[N+n']:
    a plain copy for OFDM/OTFS, the chirp-periodic prefix for AFDM.
    """
    s = np.asarray(s)
    if s.shape != (spec.n,):
        raise ValueError(f"block must have length {spec.n}, got {s.shape}")
    return _prepend_cp(spec, s)


def _prepend_cp(spec: WaveformSpec, s: np.ndarray) -> np.ndarray:
    """prepend_cp for blocks along the last axis of s: (..., N) -> (..., N + cp_len)."""
    start = spec.n - spec.cp_len
    if start < 0:
        raise ValueError(f"prefix longer than the block: cp_len {spec.cp_len} > N {spec.n}")
    return np.concatenate([s[..., start:] * spec.wrap[start:], s], axis=-1)


def effective_channel(spec: WaveformSpec, chan: ChannelRealization) -> np.ndarray:
    """Symbol-domain channel G = T_rx . H . T_tx.

    Noiselessly, demodulate(strip_cp(apply(chan, prepend_cp(modulate(x))))) equals
    G @ x; H is reduced with this waveform's own prefix vector. G is built
    by sending every unit symbol block through the transmit transform, the
    path operators and the receive transform: O(N^2 log N), no matrix product.
    """
    if chan.config.N != spec.n:
        raise ValueError(f"channel block size {chan.config.N} != waveform size {spec.n}")
    # row j is the response to unit block e_j, i.e. column j of G
    rows = spec._rx(
        apply_paths(spec._tx(np.eye(spec.n, dtype=complex)), chan.paths, spec.wrap)
    )
    return rows.T


def afdm_orthogonality_ok(ell_max: int, f_max: int, xi: int, N: int) -> bool:
    """True iff every (delay, integer Doppler) pair maps to a distinct diagonal.

    The tuned chirp walks the diagonal by 2(f_max+xi)+1 per delay tap and by
    -1 per Doppler bin, so all shifts are distinct exactly when the full span
    (2(f_max+xi)+1)*ell_max + 2*f_max + 1 fits into one period N.
    """
    _check_nonneg(ell_max=ell_max, f_max=f_max, xi=xi, N=N)
    return (2 * (f_max + xi) + 1) * ell_max + 2 * f_max + 1 <= N


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

    c1 = (2(f_max+xi)+1) / (2N); c2 defaults to 1/(2N^2), well below the 1/N
    scale that matters, and deterministic so runs reproduce.
    """
    if not afdm_orthogonality_ok(ell_max, f_max, xi, N):
        raise ValueError(
            f"tuning infeasible: (2({f_max}+{xi})+1)*{ell_max} + 2*{f_max}+1 > {N}"
        )
    c1 = (2 * (f_max + xi) + 1) / (2 * N)
    c2 = 1.0 / (2 * N * N)
    return c1, c2


def predict_support(spec: WaveformSpec, ell: int, f_int: int) -> frozenset[tuple[int, int]]:
    """Exact nonzero positions of a single integer-Doppler path in G.

    AFDM: the cyclic diagonal at col - row = (ell * 2*N*c1 - f_int) mod N.
    OTFS: block (a, (a - f_int) mod L) for every block-row a, each block a
    K x K sub-matrix populated on its cyclic diagonal col - row = -ell mod K.

    Callers are responsible for staying inside the orthogonality region;
    beyond it the patterns still wrap (and collide), which is what the
    boundary tests look for. Structural bounds are still enforced.
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
    if np.any((ell < 0) | (ell >= spec.n)):
        raise ValueError(f"delay must satisfy 0 <= ell < N, got {ell}")
    if np.any(np.abs(f_int) > spec.n // 2):
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
    return (ell * spec.delay_stride - f_int) % spec.n


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

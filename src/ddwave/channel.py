"""Doubly-dispersive channel model.

A channel realization is a finite set of propagation paths, each with a
complex gain, an integer normalized delay (samples) and a real normalized
digital Doppler f = N*nu/f_s. The sample-level time-domain application is
the ground truth. After the cyclic prefix is stripped, H is P shifted
diagonals, and no N x N matrix is built here: apply_paths applies H in
O(N P) per block and delay_diagonals gives its ell_max + 1 populated cyclic
diagonals. Both read the prefix factors of a delay-ell path, wrap[N - ell + n]
on its rows n < ell, from the waveform's prefix vector (modem.AfdmSpec.wrap).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np


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


@dataclass(frozen=True)
class PathParams:
    """One propagation path."""

    gain: complex
    delay_norm: int        # ell, integer delay in samples
    doppler_norm: float    # f = N*nu/f_s, fractional allowed
    aod: float | None = None  # departure angle [rad], only used by the MIMO model
    aoa: float | None = None  # arrival angle [rad]


@dataclass(frozen=True)
class ChannelConfig:
    """System constants shared by every realization of a scenario."""

    N: int            # block size in samples
    f_s: float        # sampling rate [Hz]
    f_c: float        # carrier frequency [Hz]
    ell_max: int      # largest integer delay
    f_max: int        # largest integer part of the normalized Doppler
    P: int            # number of paths
    cp_len: int       # cyclic prefix length [samples]

    def __post_init__(self):
        if self.cp_len < self.ell_max:
            raise ValueError(f"cp_len must be >= ell_max, got {self.cp_len} < {self.ell_max}")
        if self.cp_len > self.N:
            raise ValueError(f"cp_len must be <= N, got {self.cp_len} > {self.N}")
        if not 0 <= self.ell_max < self.N:
            raise ValueError(f"ell_max must satisfy 0 <= ell_max < N, got {self.ell_max}")
        if not 0 <= self.f_max <= self.N // 2:
            raise ValueError(f"f_max must satisfy 0 <= f_max <= N/2, got {self.f_max}")
        # underspread sanity: tau_max*nu_max = ell_max*f_max/N should be small
        if self.ell_max * self.f_max / self.N >= 0.5:
            warnings.warn(
                f"channel is not underspread: ell_max*f_max/N = "
                f"{self.ell_max * self.f_max / self.N:.2f}",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ChannelRealization:
    """A drawn set of paths plus the owning config."""

    config: ChannelConfig
    paths: tuple[PathParams, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) != self.config.P:
            raise ValueError(
                f"expected {self.config.P} paths, got {len(self.paths)}"
            )
        for p in self.paths:
            if not 0 <= p.delay_norm <= self.config.ell_max:
                raise ValueError(f"path delay {p.delay_norm} outside 0..{self.config.ell_max}")
            # f_max bounds the integer part; fractional draws reach f_max + 0.5
            if abs(p.doppler_norm) > self.config.f_max + 0.5:
                raise ValueError(
                    f"path Doppler {p.doppler_norm} outside +-{self.config.f_max + 0.5}"
                )


def sample_paths(config: ChannelConfig, doppler_mode: str, rng: np.random.Generator) -> ChannelRealization:
    """Draw a random channel realization.

    Gains are i.i.d. circularly-symmetric complex Gaussian with variance 1/P
    (unit mean total power). Delays are uniform over {0..ell_max}, without
    replacement while P allows it. Dopplers are uniform over the integers
    {-f_max..f_max} in "integer" mode, or uniform reals over
    [-f_max-0.5, f_max+0.5) in "fractional" mode. Frame stacks use the
    array form, _draw_paths, which makes the same RNG calls.
    """
    return _realization(config, *_draw_paths(config, doppler_mode, rng))


def _draw_paths(config: ChannelConfig, doppler_mode: str, rng: np.random.Generator) -> tuple:
    """The draw of sample_paths as (P,) gain, integer delay and Doppler arrays."""
    if config.P < 1:
        raise ValueError("cannot sample an empty channel (P must be >= 1)")
    if doppler_mode not in ("integer", "fractional"):
        raise ValueError(f"unknown doppler_mode {doppler_mode!r}")
    P = config.P
    g = rng.standard_normal((P, 2)) @ np.array([1.0, 1.0j]) * np.sqrt(1.0 / (2 * P))
    delays = rng.choice(config.ell_max + 1, size=P, replace=P > config.ell_max + 1)
    if doppler_mode == "integer":
        dopplers = rng.integers(-config.f_max, config.f_max + 1, size=P).astype(float)
    else:
        dopplers = rng.uniform(-config.f_max - 0.5, config.f_max + 0.5, size=P)
    return g, delays, dopplers


def _realization(config: ChannelConfig, gains, delays, dopplers) -> ChannelRealization:
    """The validated realization of (P,) path arrays; _path_arrays inverts it."""
    paths = zip(gains.tolist(), delays.tolist(), dopplers.tolist())
    return ChannelRealization(config, tuple(PathParams(g, ell, f) for g, ell, f in paths))


def time_domain_apply(s_cp: np.ndarray, chan: ChannelRealization) -> np.ndarray:
    """Apply the channel at sample level. This is the ground-truth oracle.

    Parameters
    ----------
    s_cp : array, length N + cp_len
        CP-prepended transmit sequence; index 0 is the first prefix sample.
    chan : ChannelRealization

    Returns
    -------
    array, length N
        r[n] = sum_p h_p * e^{j2pi f_p n / N} * s_cp[n - ell_p], with the
        prefix supplying the samples at n - ell_p < 0. Noiseless.
    """
    N = chan.config.N
    s_cp = np.asarray(s_cp)
    cp_len = s_cp.shape[0] - N
    if cp_len < 0:
        raise ValueError(f"input length {s_cp.shape[0]} shorter than block size {N}")
    gains, delays, dopplers = _path_arrays(chan.paths)
    return _apply_samples(s_cp, N, gains, delays, doppler_phases(N, dopplers))


def _path_arrays(paths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, integer delays and Dopplers of an iterable of PathParams, each of shape (P,)."""
    paths = tuple(paths)
    return (
        np.array([p.gain for p in paths], dtype=complex),
        np.array([p.delay_norm for p in paths], dtype=np.intp),
        np.array([p.doppler_norm for p in paths], dtype=float),
    )


def _apply_samples(s_cp, N: int, gains, delays, phases) -> np.ndarray:
    """time_domain_apply for blocks along the last axis of s_cp.

    The gains and delays have shape (..., P) and the Doppler phases,
    doppler_phases(N, dopplers), shape (..., P, N). They broadcast against
    the leading axes of s_cp, so a (B, N + cp_len) stack of blocks takes
    (B, P) arrays: one realization per block.
    """
    cp_len = s_cp.shape[-1] - N
    too_late = delays[delays > cp_len]
    if too_late.size:
        raise ValueError(f"path delay {too_late[0]} exceeds prefix length {cp_len}")
    n = np.arange(N)
    taps = gains[..., None] * phases
    r = np.zeros(s_cp.shape[:-1] + (N,), dtype=complex)
    for p in range(gains.shape[-1]):
        r += taps[..., p, :] * np.take_along_axis(s_cp, cp_len + n - delays[..., p, None], axis=-1)
    return r


def _wrap_window(wrap: np.ndarray, delays) -> np.ndarray:
    """Prefix factors of paths with the given delays, shape delays.shape + (N,).

    Row n of a delay-ell path reads its sample from the prefix if n < ell and
    takes wrap[N - ell + n], else 1: one gather from [wrap, ones] for all paths.
    """
    N = wrap.shape[0]
    delays = np.asarray(delays)
    if np.any((delays < 0) | (delays >= N)):
        raise ValueError(f"delays must satisfy 0 <= ell < N = {N}, got {delays}")
    return np.concatenate([wrap, np.ones(N)])[N - delays[..., None] + np.arange(N)]


def _path_taps(gains, delays, phases, wrap) -> np.ndarray:
    """Entries of each path's populated cyclic diagonal: h_p * phi_p[n] * e^{j2pi f_p n/N}.

    The gains and delays have shape (..., P), the Doppler phases
    e^{j2pi f_p n/N} and the taps (..., P, N), phi_p is the path's
    _wrap_window, and entry n of path p sits at (n, (n - ell_p) mod N).
    """
    return gains[..., None] * (_wrap_window(wrap, delays) * phases)


def delay_diagonals(chan: ChannelRealization, wrap: np.ndarray) -> np.ndarray:
    """The ell_max + 1 populated cyclic diagonals of H, shape (ell_max + 1, N).

    Row ell holds d[ell][n] = H[n, (n - ell) mod N], the sum of the taps of
    every path with delay ell; H has no other nonzero entry. wrap is spec.wrap.

    Only a path's first ell entries read the prefix, so only they are
    multiplied by its window wrap[N - ell:]; the other window entries are 1.
    The result equals _stack_diagonals' bit for bit: each product keeps its
    operand order, and a factor 1 can change only the sign of a zero, which
    the sum into the zeroed rows drops.
    """
    N = chan.config.N
    gains, delays, dopplers = _path_arrays(chan.paths)
    d = np.zeros((chan.config.ell_max + 1, N), dtype=complex)
    for gain, ell, tap in zip(gains, delays.tolist(), doppler_phases(N, dopplers)):
        tap[:ell] = wrap[N - ell :] * tap[:ell]
        d[ell] += gain * tap
    return d


def _stack_diagonals(ell_max: int, gains, delays, phases, wrap) -> np.ndarray:
    """delay_diagonals of B realizations given as (B, P) gains and delays and
    (B, P, N) Doppler phases (doppler_phases of the Dopplers): shape (B, ell_max + 1, N)."""
    taps = _path_taps(gains, delays, phases, wrap)
    d = np.zeros((delays.shape[0], ell_max + 1, phases.shape[-1]), dtype=complex)
    rows = np.arange(delays.shape[0])
    for p in range(delays.shape[1]):
        d[rows, delays[:, p]] += taps[:, p]
    return d


def apply_paths(S: np.ndarray, paths, wrap: np.ndarray) -> np.ndarray:
    """Apply H = sum_p h_p . Phi_p . D(f_p) . Pi^{ell_p} to N-sample blocks.

    S holds blocks along its last axis (one block, or one block per row) and
    `paths` is an iterable of PathParams. Entry n of each output block is
    sum_p h_p * phi_p[n] * e^{j2pi f_p n/N} * s[(n - ell_p) mod N], so a path
    costs O(N) per block: two sliced multiplies and one add, no matrix.
    phi_p is the path's window of wrap, the waveform's prefix vector (spec.wrap).
    """
    S = np.asarray(S)
    N = S.shape[-1]
    gains, delays, dopplers = _path_arrays(paths)
    out = np.zeros(S.shape, dtype=complex)
    term = np.empty(S.shape, dtype=complex)
    for ell, d in zip(delays.tolist(), _path_taps(gains, delays, doppler_phases(N, dopplers), wrap)):
        np.multiply(S[..., N - ell:], d[:ell], out=term[..., :ell])
        np.multiply(S[..., : N - ell], d[ell:], out=term[..., ell:])
        out += term
    return out


def tvtf(chan: ChannelRealization, t, f):
    """Time-variant transfer function sum_p h_p e^{j2pi nu_p t} e^{-j2pi tau_p f}.

    t is in seconds, f in Hz; both broadcast, so grids come out directly.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    out = np.zeros(np.broadcast(t, f).shape, dtype=complex)
    cfg = chan.config
    for p in chan.paths:
        nu = p.doppler_norm * cfg.f_s / cfg.N
        tau = p.delay_norm / cfg.f_s
        out += p.gain * np.exp(2j * np.pi * nu * t) * np.exp(-2j * np.pi * tau * f)
    if out.ndim == 0:
        return complex(out)
    return out


def dvirf_points(chan: ChannelRealization) -> list[tuple[float, float, complex]]:
    """Delay-Doppler impulse representation: one (tau_s, nu_hz, gain) per path."""
    cfg = chan.config
    return [
        (p.delay_norm / cfg.f_s, p.doppler_norm * cfg.f_s / cfg.N, p.gain)
        for p in chan.paths
    ]


def realization_from_points(config: ChannelConfig, points) -> ChannelRealization:
    """Rebuild a realization from (tau_s, nu_hz, gain) triples.

    Delays must land on integer sample positions (tau * f_s integral).
    """
    paths = []
    for tau, nu, gain in points:
        ell = tau * config.f_s
        if abs(ell - round(ell)) > 1e-9:
            raise ValueError(f"delay {tau} s is not an integer number of samples")
        paths.append(
            PathParams(gain=gain, delay_norm=int(round(ell)), doppler_norm=nu * config.N / config.f_s)
        )
    return ChannelRealization(config=config, paths=tuple(paths))


def mimo_channel(
    base: ChannelRealization,
    gains: np.ndarray,
    tx_gain=None,
    rx_gain=None,
) -> tuple[tuple[ChannelRealization, ...], ...]:
    """One realization per antenna pair, all sharing the base path geometry.

    Parameters
    ----------
    base : ChannelRealization
        Supplies the shared (ell_p, f_p) and any angles; its own gains are
        ignored in favour of `gains`.
    gains : array, shape (P, Nt, Nr)
        Complex small-scale gain of path p between transmit antenna n_t and
        receive antenna n_r.
    tx_gain, rx_gain : callable or None
        Beam gain as a function of angle [rad]. None means constant 1; a
        callable requires the matching angle on every path.

    Returns
    -------
    Nt x Nr nested tuple of ChannelRealization
        Entry [n_t][n_r] keeps the base paths' delays, Dopplers and angles,
        with gain beam_p * gains[p, n_t, n_r] on path p. Each applies like
        any realization (time_domain_apply, effective_channel, equalizers),
        with the waveform's own prefix vector; memory is O(P Nt Nr).
    """
    gains = np.asarray(gains)
    P, Nt, Nr = gains.shape
    if P != len(base.paths):
        raise ValueError(f"gain tensor has {P} paths, realization has {len(base.paths)}")
    beams = []
    for p_idx, p in enumerate(base.paths):
        if tx_gain is not None and p.aod is None:
            raise ValueError(f"path {p_idx} lacks a departure angle for the tx beam gain")
        if rx_gain is not None and p.aoa is None:
            raise ValueError(f"path {p_idx} lacks an arrival angle for the rx beam gain")
        beam = 1.0
        if tx_gain is not None:
            beam *= float(tx_gain(p.aod))
        if rx_gain is not None:
            beam *= float(rx_gain(p.aoa))
        beams.append(beam)
    pair_gains = np.array(beams)[:, None, None] * gains
    return tuple(
        tuple(
            ChannelRealization(
                base.config,
                tuple(replace(p, gain=complex(g)) for p, g in zip(base.paths, pair_gains[:, nt, nr])),
            )
            for nr in range(Nr)
        )
        for nt in range(Nt)
    )

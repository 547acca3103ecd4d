"""Doubly-dispersive channel model.

A realization is P paths, each a complex gain h_p, an integer delay ell_p
in samples and a real normalized Doppler f_p = N nu_p / f_s:
H = sum_p h_p Phi_p D(f_p) Pi^{ell_p}, with no N x N matrix built: H is
its ell_max + 1 populated cyclic diagonals d[ell][n] = H[n, (n - ell) mod N].
_stack_diagonals builds them, the one place a path's tap is formed, and
_apply_diagonals applies them, O(N) per delay. Row n of a delay-ell path
reads its sample from the prefix when n < ell and then takes the factor
wrap[N - ell + n] of the waveform's prefix vector (modem.AfdmSpec.wrap),
else 1 (_wrap_window). The sample route, time_domain_apply, and the frames'
transmit channel apply the plain diagonals (prefix vector ones) to the
caller's prefixed samples (_transmit), so they read the prefix as sent.

tvtf, dvirf_points and realization_from_points are the paper's continuous
views of a realization: the time-variant transfer function, and the
delay-Doppler spreading function as (tau, nu, gain) points with its
inverse. Nothing else in the package calls them; they stay as those views.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def doppler_phases(N: int, f) -> np.ndarray:
    """The Doppler diagonal exp(+j2pi f n/N), n = 0..N-1, shape f.shape + (N,).

    The + sign is the sample relation r[n] ~ e^{+j2pi f n/N}, which every
    support-shift rule inherits. The phase is reduced before its exponential:
    |f| = w + phi and phi n = m + rho with w, m the nearest integers, so the
    result is entry (w n + m) mod N of _roots(N), times e^{j2pi rho/N} for a
    fractional f only. doppler_phases(N, -f) is conj(doppler_phases(N, f))
    bit for bit, signed zeros included. Raises ValueError for N < 1.
    """
    if N < 1:
        raise ValueError(f"size must be >= 1, got {N}")
    f = np.asarray(f, dtype=float)
    n = np.arange(N)
    size = np.abs(f)
    whole = np.rint(size)
    index = np.multiply.outer((whole % N).astype(np.intp), n)
    rest = size - whole
    turn = None
    if np.count_nonzero(rest):
        cycles = np.multiply.outer(rest, n)
        carry = np.rint(cycles)
        index += carry.astype(np.intp)
        cycles -= carry
        cycles *= 2 * np.pi / N
        turn = np.empty(cycles.shape, dtype=complex)
        np.cos(cycles, out=turn.real)
        np.sin(cycles, out=turn.imag)
    index %= N
    phases = _roots(N)[index]
    if turn is not None:
        phases *= turn
    np.conjugate(phases, out=phases, where=np.signbit(f)[..., None])
    return phases


def _turns(t) -> np.ndarray:
    """e^{j2pi t} for phases t in cycles, |t| <= 1/2.

    t = q/4 + r with q = rint(4 t), so |r| <= 1/8, and r is exact (Sterbenz);
    e^{j2pi r} is then turned by j^q, a swap and negation of its parts. A
    quarter turn gives exactly 1, j, -1 or -j.
    """
    q = np.rint(4 * t)
    angle = q / -4
    angle += t
    angle *= 2 * np.pi
    z = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    z *= _QUARTER_TURNS[q.astype(np.intp) % 4]
    return z


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=8)
def _roots(M: int) -> np.ndarray:
    """The M-th roots of unity e^{j2pi k/M}, k = 0..M-1 (read-only, cached).

    Entries k <= M/2 are _turns(k/M), so the quarter turns are exactly 1, j,
    -1 and -j, and entry M - k is the conjugate of entry k, bit for bit.
    """
    half = _turns(np.arange(M // 2 + 1) / M)
    roots = np.concatenate([half, np.conj(half[(M + 1) // 2 - 1 : 0 : -1])])
    roots.flags.writeable = False
    return roots


@dataclass(frozen=True)
class PathParams:
    """One propagation path."""

    gain: complex
    delay_norm: int        # ell, integer delay in samples
    doppler_norm: float    # f = N*nu/f_s, fractional allowed


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
        for name in ("f_s", "f_c"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
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
                stacklevel=3,  # past dataclass's generated __init__, to the caller
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
            # f_max bounds the integer part; fractional draws reach f_max + 0.5 (NaN fails too)
            if not abs(p.doppler_norm) <= self.config.f_max + 0.5:
                raise ValueError(
                    f"path Doppler {p.doppler_norm} outside +-{self.config.f_max + 0.5}"
                )


def sample_paths(config: ChannelConfig, doppler_mode: str, rng: np.random.Generator) -> ChannelRealization:
    """Draw a realization from rng.

    Gains are i.i.d. circular complex Gaussian of variance 1/P. Delays are
    uniform over 0..ell_max, without replacement while P allows it.
    Dopplers are uniform over the integers -f_max..f_max ("integer") or the
    reals [-f_max - 0.5, f_max + 0.5) ("fractional"). Raises ValueError for
    P < 1 or another mode. _draw_paths makes the same RNG calls.
    """
    return _realization(config, *_draw_paths(config, doppler_mode, rng))


_DOPPLER_MODES = ("integer", "fractional")


def _draw_paths(config: ChannelConfig, doppler_mode: str, rng: np.random.Generator) -> tuple:
    """The draw of sample_paths as (P,) gain, integer delay and Doppler arrays."""
    if config.P < 1:
        raise ValueError("cannot sample an empty channel (P must be >= 1)")
    if doppler_mode not in _DOPPLER_MODES:
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
    """The sample route: the noiseless (N,) r[n] = sum_p h_p e^{j2pi f_p n/N}
    s_cp[cp_len + n - ell_p] of the prefixed (N + cp_len,) block s_cp, whose
    prefix is read as given (_transmit).

    Raises ValueError if s_cp is shorter than N or a delay exceeds cp_len.
    """
    return _transmit(delay_diagonals(chan, np.ones(chan.config.N)), _path_arrays(chan.paths)[1], np.asarray(s_cp))


def _path_arrays(paths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, integer delays and Dopplers of a sequence of PathParams, each of shape (P,)."""
    return (
        np.array([p.gain for p in paths], dtype=complex),
        np.array([p.delay_norm for p in paths], dtype=np.intp),
        np.array([p.doppler_norm for p in paths], dtype=float),
    )


def _transmit(d: np.ndarray, delays, s_cp: np.ndarray) -> np.ndarray:
    """H s_cp for H's plain (..., ell_max + 1, N) diagonals d (prefix vector
    ones), the delays of their paths and prefixed blocks s_cp (..., N + cp_len):
    rows 0..cp_len of d read the prefix as given. Raises ValueError if s_cp
    is shorter than N or a delay exceeds cp_len."""
    cp_len = s_cp.shape[-1] - d.shape[-1]
    if cp_len < 0:
        raise ValueError(f"input length {s_cp.shape[-1]} shorter than block size {d.shape[-1]}")
    too_late = delays[delays > cp_len]
    if too_late.size:
        raise ValueError(f"path delay {too_late[0]} exceeds prefix length {cp_len}")
    return _apply_diagonals(d[..., : cp_len + 1, :], s_cp)


def _wrap_window(wrap: np.ndarray, delays) -> np.ndarray:
    """Prefix factors of paths with the given delays (module docstring),
    shape delays.shape + (N,); raises ValueError unless 0 <= ell < N."""
    N = wrap.shape[0]
    delays = np.asarray(delays)
    if np.any((delays < 0) | (delays >= N)):
        raise ValueError(f"delays must satisfy 0 <= ell < N = {N}, got {delays}")
    return np.concatenate([wrap, np.ones(N)])[N - delays[..., None] + np.arange(N)]


def delay_diagonals(chan: ChannelRealization, wrap: np.ndarray) -> np.ndarray:
    """H's (ell_max + 1, N) cyclic diagonals for the prefix vector wrap
    (spec.wrap): the one-realization _stack_diagonals."""
    return _stack_diagonals(chan.config.ell_max, *(a[None] for a in _path_arrays(chan.paths)), wrap)[0]


def _stack_diagonals(ell_max: int, gains, delays, dopplers, wrap) -> np.ndarray:
    """H's (B, ell_max + 1, N) diagonals, N = len(wrap), of B realizations
    given as (B, P) gains, integer delays and Dopplers.

    Path p's taps h_p phi_p[n] e^{j2pi f_p n/N}, phi_p its _wrap_window,
    sum into row ell_p in path order.
    """
    phases = doppler_phases(wrap.shape[0], dopplers)
    taps = gains[..., None] * (_wrap_window(wrap, delays) * phases)
    d = np.zeros((delays.shape[0], ell_max + 1, phases.shape[-1]), dtype=complex)
    rows = np.arange(delays.shape[0])
    for p in range(delays.shape[1]):
        d[rows, delays[:, p]] += taps[:, p]
    return d


def _apply_diagonals(d: np.ndarray, S) -> np.ndarray:
    """H s for H's (..., E, N) diagonals d and blocks along the last axis of S
    that carry h = S.shape[-1] - N >= E - 1 samples of history each:
    r[n] = sum_ell d[ell][n] S[h + n - ell], summed in delay order. The
    leading axes of d and S broadcast."""
    E, N = d.shape[-2:]
    h = S.shape[-1] - N
    out = np.zeros(np.broadcast_shapes(S.shape[:-1], d.shape[:-2]) + (N,), dtype=complex)
    term = np.empty(out.shape, dtype=complex)
    for ell in range(E):
        np.multiply(S[..., h - ell : h - ell + N], d[..., ell, :], out=term)
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


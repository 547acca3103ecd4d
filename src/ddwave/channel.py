"""Doubly-dispersive channel model.

A channel realization is a finite set of propagation paths, each with a
complex gain, an integer normalized delay (samples) and a real normalized
digital Doppler f = N*nu/f_s. H = sum_p h_p Phi_p D(f_p) Pi^{ell_p} has two
routes, and no N x N matrix is built here. The sample route,
time_domain_apply (_apply_samples for stacks), reads each path's samples
from the transmitted prefix: it is the ground truth and the frames' transmit
channel. After the prefix is stripped, H is its ell_max + 1 populated cyclic
diagonals: _stack_diagonals is their one builder (delay_diagonals its
one-realization call), and _apply_diagonals applies them in O(N) per delay.
The builder reads the prefix factors of a delay-ell path, wrap[N - ell + n]
on its rows n < ell, from the waveform's prefix vector (modem.AfdmSpec.wrap).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np


def doppler_phases(N: int, f) -> np.ndarray:
    """Diagonal of the Doppler matrix: exp(+j2pi*f*n/N) for n = 0..N-1.

    The + sign follows the time-domain sample relation r[n] ~ e^{+j2pi f n/N};
    all support-shift rules downstream inherit this convention. An array of
    Dopplers gives one diagonal per entry, shape f.shape + (N,).

    The phase is reduced before any exponential, so its error does not grow
    with f n. |f| splits exactly into its nearest integer w and a rest phi,
    |phi| <= 1/2, and phi n into its nearest integer m and rho, |rho| <= 1/2:
    e^{j2pi (w n + m)/N} is entry (w n + m) mod N of the N-th roots of unity
    (_roots), and only a fractional Doppler adds the small turn
    e^{j2pi rho/N}. So integer Dopplers call no exponential and are exact at
    quarter turns. A negative f (sign bit set) takes the conjugate, so
    doppler_phases(N, -f) is conj(doppler_phases(N, f)) bit for bit, signed
    zeros included.
    """
    if N < 1:
        raise ValueError(f"size must be >= 1, got {N}")
    f = np.asarray(f, dtype=float)
    n, roots = _unit_circle(N)
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
    phases = roots[index]
    if turn is not None:
        phases *= turn
    np.conjugate(phases, out=phases, where=np.signbit(f)[..., None])
    return phases


@lru_cache(maxsize=8)
def _unit_circle(N: int) -> tuple[np.ndarray, np.ndarray]:
    """n = 0..N-1 and the N-th roots of unity (_roots), cached."""
    return np.arange(N), _roots(N)


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

    @cached_property
    def _taps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (P,) gains and integer delays and the (P, N) Doppler phases of the
        paths, read-only: formed once, however many waveforms this realization
        is applied to or equalized for."""
        gains, delays, dopplers = _path_arrays(self.paths)
        taps = gains, delays, doppler_phases(self.config.N, dopplers)
        for a in taps:
            a.flags.writeable = False
        return taps

    @cached_property
    def _zf_accepted(self) -> dict[bytes, np.ndarray]:
        """H's read-only (ell_max + 1, N) diagonals for each prefix vector, keyed
        by its bytes, that link's ZF condition guard has accepted: filled only
        by link._zf_accept, and gone with this realization. A refused H is
        never entered."""
        return {}


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
    return _apply_samples(s_cp, N, *chan._taps)


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


def delay_diagonals(chan: ChannelRealization, wrap: np.ndarray) -> np.ndarray:
    """The ell_max + 1 populated cyclic diagonals of H, shape (ell_max + 1, N).

    Row ell holds d[ell][n] = H[n, (n - ell) mod N], the sum of the taps of
    every path with delay ell; H has no other nonzero entry. wrap is
    spec.wrap. This is the one-realization _stack_diagonals.
    """
    gains, delays, phases = chan._taps
    return _stack_diagonals(chan.config.ell_max, gains[None], delays[None], phases[None], wrap)[0]


def _stack_diagonals(ell_max: int, gains, delays, phases, wrap) -> np.ndarray:
    """delay_diagonals of B realizations given as (B, P) gains and delays and
    (B, P, N) Doppler phases (doppler_phases of the Dopplers): shape (B, ell_max + 1, N).

    Path p's taps h_p * phi_p[n] * e^{j2pi f_p n/N}, phi_p its _wrap_window
    of wrap, sit at (n, (n - ell_p) mod N), so they sum, in path order, into
    row ell_p.
    """
    taps = gains[..., None] * (_wrap_window(wrap, delays) * phases)
    d = np.zeros((delays.shape[0], ell_max + 1, phases.shape[-1]), dtype=complex)
    rows = np.arange(delays.shape[0])
    for p in range(delays.shape[1]):
        d[rows, delays[:, p]] += taps[:, p]
    return d


def _apply_diagonals(d: np.ndarray, S) -> np.ndarray:
    """H S for H's (ell_max + 1, N) cyclic diagonals d and blocks along the last axis of S.

    Entry n of each output block is sum_ell d[ell][n] * s[(n - ell) mod N],
    summed in delay order: two sliced multiplies and one add per delay, no matrix.
    """
    S = np.asarray(S)
    N = S.shape[-1]
    out = np.zeros(S.shape, dtype=complex)
    term = np.empty(S.shape, dtype=complex)
    for ell, d_ell in enumerate(d):
        np.multiply(S[..., N - ell :], d_ell[:ell], out=term[..., :ell])
        np.multiply(S[..., : N - ell], d_ell[ell:], out=term[..., ell:])
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

"""Delay-Doppler sensing: correlation maps, CSI-based extraction, grid-search ML.

Three methods over one target model; none builds an N x N array. The
matched filter correlates raw sequences (matched_filter_map), and the
self-ambiguity is that map of a frame against itself.

Direct extraction reads integer targets off the effective channel G on
each candidate's predicted support: from a given G in one gather, or from
H's cyclic diagonals d_ell through the closed form of G (_ChannelCsi).
On AFDM, with D_ell = FFT(c1 d_ell conj(c1[(n - ell) mod N])) / N,
G[n, m] = c2[n] conj(c2[m]) sum_ell D_ell[(n - m) mod N] e^{-j2pi ell m/N}.
On candidate c's support m = (n + s_c) mod N, so its entries are unit
chirps times Q[c, m] = sum_ell a[c, ell] e^{-j2pi ell m/N}, with
a[c, ell] = D_ell[-s_c mod N], and its score is the row mean of |Q[c]|.
Parseval bounds: ChannelConfig keeps ell_max < N, so the E <= N
frequencies ell/N are distinct, mean_m |Q[c, m]|^2 = ||a_c||_2^2 and
max_m |Q[c, m]| <= ||a_c||_1. Hence
||a_c||_2^2 / ||a_c||_1 <= mean_m |Q[c, m]| <= ||a_c||_2. At least P
candidates score at least the P-th largest lower bound, so one whose upper
bound falls short of it, or of the threshold, cannot rank (_survivors).
Only the survivors get their (N,) row: O(C E + k N) for C candidates and
k survivors, with the targets, order, ties and gains of scoring them all.
On OTFS, row (a, b) = a K + b with a on the L axis, G[(a, b), (a', b')] is
p_rx[b] p_tx[b'] times the sum, over the ell with (b - ell) mod K = b', of
e^{j2pi a' q/L} Dh_ell[(a - a') mod L, b], where q = floor((b - ell) / K)
and Dh_ell[u, b] = DFT_L(d_ell[. K + b])[u] / L; every candidate is
scored, in O(C N).

The ML search fits paths to a known pilot frame by greedy successive
cancellation over a coarse-to-fine grid, and no candidate goes through a
receive transform. With s = T_tx x, the unit response of (ell, f) is
z = T_rx u for u[n] = phi_ell[n] s[(n - ell) mod N] e^{j2pi f n/N}, phi_ell
the delay's prefix window. Since T_tx = T_rx^H (modem), z^H y = u^H T_tx y
and |z|^2 = |s|^2: a score is the matched filter's correlation (_correlate)
of T_tx y with the windowed pilot. Per target the coarse grid is one
(L, N) @ (N, F) product for L delays and F Dopplers, and each refinement
level one row against a table of 2 refine_factor Doppler offsets (_MlGrid).

The `sense` trials (_sense_trials) are the BER frame stacks of
link._draw_frames, read in time domain. The tables that depend only on the
spec and the grid are built once per sweep (_trial_tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import ChannelConfig, _roots, _wrap_window, doppler_phases
from .link import Constellation, _check_spec, _draw_frames, map_bits
from .modem import AfdmSpec, OfdmSpec, WaveformSpec, _support_indices, afdm_shift, demodulate, modulate

LIGHT_SPEED = 2.99792458e8  # m/s, exact


@dataclass(frozen=True, eq=False)
class DelayDopplerMap:
    """Complex grid indexed by (delay bin, Doppler bin)."""

    delay_bins: np.ndarray    # integer sample delays
    doppler_bins: np.ndarray  # normalized digital Doppler, fractional allowed
    values: np.ndarray        # shape (len(delay_bins), len(doppler_bins))

    def __post_init__(self):
        if self.values.shape != (len(self.delay_bins), len(self.doppler_bins)):
            raise ValueError("grid shape does not match the bin lists")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map contains non-finite values")

    def argmax(self) -> tuple[float, float]:
        """(delay, Doppler) of the largest-magnitude cell."""
        i, j = np.unravel_index(np.argmax(np.abs(self.values)), self.values.shape)
        return float(self.delay_bins[i]), float(self.doppler_bins[j])

    def top_peaks(self, count: int) -> list[tuple[float, float]]:
        """The `count` largest cells, magnitude-descending, ties by (delay, Doppler)."""
        d, f = (g.ravel() for g in np.meshgrid(self.delay_bins, self.doppler_bins, indexing="ij"))
        order = np.lexsort((f, d, -np.abs(self.values).ravel()))[:count]
        return [(float(d[k]), float(f[k])) for k in order]


@dataclass(frozen=True)
class RadarTargetEstimate:
    """One estimated target, in normalized units plus optional physical ones."""

    delay_norm_hat: float
    doppler_norm_hat: float
    gain_hat: complex
    range_m: float = math.nan
    velocity_mps: float = math.nan

    def with_physical_units(
        self, f_s: float, f_c: float, n: int, geometry: str = "monostatic"
    ) -> "RadarTargetEstimate":
        """Fill range/velocity from the normalized estimates."""
        tau = self.delay_norm_hat / f_s
        nu = self.doppler_norm_hat * f_s / n
        r, v = radar_convert(tau, nu, f_c, geometry)
        return replace(self, range_m=r, velocity_mps=v)


def _check_bins(delay_bins, doppler_bins, N: int) -> tuple[np.ndarray, np.ndarray]:
    delay_bins = np.asarray(delay_bins, dtype=float)
    doppler_bins = np.asarray(doppler_bins, dtype=float)
    # the range tests are written so that NaN fails them: a non-finite bin is out of range
    if not np.all((delay_bins >= 0) & (delay_bins <= N - 1)):
        raise ValueError(f"delay bins must lie in 0..{N - 1}")
    if np.any(np.abs(delay_bins - np.round(delay_bins)) > 1e-9):
        raise ValueError("fractional delay bins are unsupported (integer-delay scope)")
    if not np.all(np.abs(doppler_bins) <= N / 2):
        raise ValueError("Doppler bins must lie within +-N/2")
    return np.round(delay_bins).astype(int), doppler_bins


def matched_filter_map(r: np.ndarray, s_known: np.ndarray, delay_bins, doppler_bins) -> DelayDopplerMap:
    """Cross-correlation against delayed, Doppler-shifted copies of a known frame.

    M[l, f] = sum_n r[n] conj(s_known[(n-l) mod N]) e^{-j2pi f n/N}; the grid
    argmax is the correlation-based estimate. The Doppler exponent is
    conjugated relative to the self-ambiguity so that a target at (l*, f*)
    peaks exactly there.
    """
    r = np.asarray(r)
    s_known = np.asarray(s_known)
    if r.shape != s_known.shape:
        raise ValueError(f"length mismatch: {r.shape} vs {s_known.shape}")
    N = r.shape[0]
    ells, dops = _check_bins(delay_bins, doppler_bins, N)
    rows = s_known[(np.arange(N) - ells[:, None]) % N]
    return DelayDopplerMap(ells.astype(float), dops, _correlate(r, rows, doppler_phases(N, -dops)))


def _correlate(r: np.ndarray, rows: np.ndarray, E: np.ndarray) -> np.ndarray:
    """C[i, j] = sum_n r[n] conj(rows[i, n]) E[j, n], with E[j, n] = e^{-j2pi f_j n/N}
    the rows doppler_phases(N, -f): the one correlation kernel, of the matched
    filter, the ambiguity map and the ML search."""
    return (r * np.conj(rows)) @ E.T


def ambiguity_map(s: np.ndarray, delay_bins, doppler_bins) -> DelayDopplerMap:
    """Cyclic self-ambiguity A[l, f] = sum_n s[n] conj(s[(n-l) mod N]) e^{j2pi f n/N}.

    This is the matched-filter map of s against itself at the negated
    Doppler bins, labelled with the requested ones.
    """
    dops = np.asarray(doppler_bins, dtype=float)
    m = matched_filter_map(s, s, delay_bins, -dops)
    return DelayDopplerMap(m.delay_bins, dops, m.values)


def _frame_ambiguity(spec: WaveformSpec, constellation: Constellation, rng) -> DelayDopplerMap:
    """ambiguity_map of one frame of random bits from rng, over delays 0..N-1
    and Doppler bins -(N // 2)..N // 2."""
    bits = rng.integers(0, 2, size=spec.n * constellation.bits_per_symbol)
    s = modulate(spec, map_bits(bits, constellation))
    return ambiguity_map(s, range(spec.n), range(-(spec.n // 2), spec.n // 2 + 1))


def _delayed_rows(spec: WaveformSpec, s: np.ndarray, ells) -> np.ndarray:
    """phi_ell[n] * s[(n - ell) mod N], one row per ell of ells, with phi_ell
    the delay's window of spec.wrap: a unit path at (ell, 0) applied to s."""
    ells = np.asarray(ells, dtype=np.intp)
    return _wrap_window(spec.wrap, ells) * s[(np.arange(spec.n) - ells[:, None]) % spec.n]


def _integer_candidates(spec: WaveformSpec) -> tuple[np.ndarray, np.ndarray]:
    """(ell, f_int) arrays of every pair inside the waveform's injective support region.

    The pairs run ell-major, each ell with f_int ascending. At most N
    Doppler bins have distinct supports, so the window is clipped to the
    block when the chirp's guard is wider than it.
    """
    if isinstance(spec, OfdmSpec):
        raise ValueError("direct extraction is unsupported for OFDM")
    if isinstance(spec, AfdmSpec):
        stride = spec.delay_stride
        f_lim = min((stride - 1) // 2, (spec.n - 1) // 2)
        ell_lim = max((spec.n - 2 * f_lim - 1) // stride, 0) if stride > 0 else 0
        ell_count = min(ell_lim, spec.n - 1) + 1
    else:
        f_lim = (spec.l - 1) // 2
        ell_count = spec.k
    ells, fs = np.meshgrid(np.arange(ell_count), np.arange(-f_lim, f_lim + 1), indexing="ij")
    return ells.ravel(), fs.ravel()


def _top_targets(spec, ells, fs, scores, entries, P, threshold, pilot) -> list[RadarTargetEstimate]:
    """The top P candidates by score, ties toward smaller ell, then smaller f,
    without those below threshold (a pruned candidate scores -inf); both
    direct routes end here. `entries(c)` gives G on the supports of the
    candidates c. A winner's gain is the mean of its entries divided
    entrywise by those of the unit-gain probe G1, which inside the injective
    region are the row sums G1 @ 1: the responses to pilot = modulate(ones).
    """
    top = np.array([c for c in np.lexsort((fs, ells, -scores))[:P] if not scores[c] < threshold], dtype=int)
    if top.size == 0:
        return []
    probes = demodulate(spec, _delayed_rows(spec, pilot, ells[top]) * doppler_phases(spec.n, fs[top]))
    gains = np.mean(entries(top) / probes, axis=1)
    return [RadarTargetEstimate(float(ells[c]), float(fs[c]), complex(g)) for c, g in zip(top, gains)]


def _threshold(spec: WaveformSpec, threshold: float | None = None) -> float:
    """The detection threshold of both direct routes: threshold, by default 1/(2N)."""
    return 1.0 / (2 * spec.n) if threshold is None else threshold


def direct_csi_extract(
    G: np.ndarray,
    spec: WaveformSpec,
    P: int,
    threshold: float | None = None,
) -> list[RadarTargetEstimate]:
    """Integer targets read off an (N, N) effective channel G: every candidate
    (ell, f_int) scored by the mean of |G| over its predicted support, the
    top P kept (_top_targets). Raises ValueError for another shape or OFDM.
    """
    G = np.asarray(G)
    if G.shape != (spec.n, spec.n):
        raise ValueError(f"G must be {spec.n} x {spec.n}, got {G.shape}")
    ells, fs = _integer_candidates(spec)
    entries = G[_support_indices(spec, ells, fs)]
    pilot = modulate(spec, np.ones(spec.n, dtype=complex))
    return _top_targets(spec, ells, fs, np.abs(entries).mean(axis=1), entries.__getitem__, P,
                        _threshold(spec, threshold), pilot)


def _parseval_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (lower, upper) Parseval bounds (module docstring) on the row means
    of |Q| for Q[c, m] = sum_ell a[c, ell] e^{-j2pi ell m/N}."""
    mag = np.abs(a)
    l1, l2sq = mag.sum(axis=1), (mag * mag).sum(axis=1)
    return np.divide(l2sq, l1, out=np.zeros_like(l1), where=l1 > 0), np.sqrt(l2sq)


def _survivors(lower: np.ndarray, upper: np.ndarray, P: int, threshold: float) -> np.ndarray:
    """Ascending indices of the candidates that may rank in the top P at or
    above threshold (module docstring); the relative margin 1e-9 absorbs the
    rounding of bounds and scores."""
    cut = threshold if P > lower.size else max(threshold, float(np.partition(lower, -P)[-P]))
    return np.flatnonzero(upper * (1.0 + 1e-9) >= cut)


def _afdm_rows(a: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Q = a @ phases, each row bitwise the row of the product over every
    candidate. numpy sends a one-row product to gemv, which can round
    unlike the gemm of a stack, so a lone row goes through as two."""
    if a.shape[0] == 1:
        return (a[[0, 0]] @ phases)[:1]
    return a @ phases


class _ChannelCsi:
    """Direct CSI from H's cyclic diagonals, for one spec and E = ell_max + 1
    diagonals, through the closed form of G (module docstring).

    Called with diags = delay_diagonals(chan, spec.wrap), it returns
    direct_csi_extract(effective_channel(spec, chan), spec, P). What does
    not depend on the channel is built once, in __init__.
    """

    def __init__(self, spec: WaveformSpec, E: int):
        N = spec.n
        self.spec = spec
        self.ells, self.fs = _integer_candidates(spec)
        self.pilot = modulate(spec, np.ones(N, dtype=complex))
        if isinstance(spec, AfdmSpec):
            self.lagged = spec._chirps[2][(np.arange(N) - np.arange(E)[:, None]) % N]
            self.taps = -afdm_shift(spec, self.ells, self.fs) % N
            self.phases = doppler_phases(N, -np.arange(E))
        else:
            self.cols = _support_indices(spec, self.ells, self.fs)[1]

    def __call__(self, diags: np.ndarray, P: int) -> list[RadarTargetEstimate]:
        if diags.shape[-1] != self.spec.n:
            raise ValueError(f"channel block size {diags.shape[-1]} != waveform size {self.spec.n}")
        threshold = _threshold(self.spec)
        scores, entries = self.support(diags, P, threshold)
        return _top_targets(self.spec, self.ells, self.fs, scores, entries, P, threshold, self.pilot)

    def coefficients(self, diags: np.ndarray) -> np.ndarray:
        """AFDM: the (C, E) coefficients a[c, ell] = D_ell[-s_c mod N] of the rows Q[c]."""
        D = np.fft.fft(self.spec._chirps[0] * diags * self.lagged, axis=-1) / self.spec.n
        return D[:, self.taps].T

    def support(self, diags: np.ndarray, P: int, threshold: float):
        """Mean support magnitudes of G per candidate (-inf where pruned), and a
        reader mapping candidate indices to G on their supports, in the
        layout of _support_indices."""
        spec, ells, fs, E = self.spec, self.ells, self.fs, diags.shape[0]
        N = spec.n
        if isinstance(spec, AfdmSpec):
            a = self.coefficients(diags)
            keep = _survivors(*_parseval_bounds(a), P, threshold)
            Q = _afdm_rows(a[keep], self.phases)
            scores = np.full(len(ells), -np.inf)
            scores[keep] = np.abs(Q).mean(axis=1)
            row_of = np.zeros(len(ells), dtype=np.intp)
            row_of[keep] = np.arange(keep.size)
            _, ch2, _, ch2_conj = spec._chirps

            def entries(c):
                rows, cols = _support_indices(spec, ells[c], fs[c])
                return ch2[rows] * ch2_conj[cols] * np.take_along_axis(Q[row_of[c]], cols, axis=-1)

            return scores, entries
        K, L = spec.k, spec.l
        Dh = np.fft.fft(diags.reshape(E, L, K), axis=1) / L
        a_src, b_src = np.divmod(self.cols.reshape(-1, L, K), K)
        b = np.arange(K)
        roots = _roots(L)
        G = np.zeros(a_src.shape, dtype=complex)
        for ell in range(E):
            hit = (ells - ell) % K == 0  # the candidates whose support this diagonal reaches
            G[hit] += roots[a_src[hit] * ((b - ell) // K) % L] * Dh[ell, fs[hit] % L][:, None, :]
        for pulse, cell in ((spec.pulse_rx, b), (spec.pulse_tx, b_src)):
            if pulse is not None:
                G *= np.asarray(pulse, dtype=complex)[cell]
        G = G.reshape(len(ells), N)
        return np.abs(G).mean(axis=1), G.__getitem__


@dataclass(frozen=True, eq=False)
class _MlGrid:
    """The search grid of indirect_csi_ml and its Doppler tables: coarse is
    doppler_phases(N, -dops), and each refinement level holds its step and
    the rows e^{-j2pi k step n/N} for k in ks = -refine_factor..-1,
    1..refine_factor."""

    ells: np.ndarray
    dops: np.ndarray
    coarse: np.ndarray
    ks: list
    levels: list  # (step, offset table) per level


def _ml_grid(spec: WaveformSpec, coarse_grid: tuple, refine_levels: int, refine_factor: int) -> _MlGrid:
    """Validate the spec and the search grid of indirect_csi_ml and build its
    tables; a table's k > 0 rows are the conjugates of its k < 0 rows, which
    doppler_phases keeps bit for bit."""
    N = spec.n
    _check_spec(spec, N)
    if refine_levels > 0 and refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    ells, dops = _check_bins(list(coarse_grid[0]), list(coarse_grid[1]), N)
    if not ells.size or not dops.size:
        raise ValueError("coarse grid must be nonempty in both dimensions")
    if np.any(dops != np.round(dops)):
        raise ValueError("coarse Doppler bins must be integers")
    levels = []
    for level in range(1, refine_levels + 1):
        step = float(refine_factor) ** (-level)
        half = doppler_phases(N, [k * step for k in range(1, refine_factor + 1)])
        levels.append((step, np.concatenate([half[::-1], np.conj(half)])))
    ks = [*range(-refine_factor, 0), *range(1, refine_factor + 1)]
    return _MlGrid(ells, dops, doppler_phases(N, -dops), ks, levels)


def indirect_csi_ml(
    y: np.ndarray,
    x_known: np.ndarray,
    spec: WaveformSpec,
    P: int,
    coarse_grid: tuple,
    refine_levels: int = 0,
    refine_factor: int = 10,
) -> list[RadarTargetEstimate]:
    """Grid-search ML fit of P paths to a known-pilot frame (module docstring).

    For each target, every (ell, f) of the coarse grid is scored by
    |z^H r|^2 / |z|^2 for its unit response z and the residual r, the first
    maximum in ell-major, f-ascending order winning. Its Doppler is refined
    on refine_levels grids whose step shrinks by refine_factor per level; a
    refined candidate replaces the incumbent only with a strictly higher
    score. The least-squares fitted component is subtracted, and the search
    repeats on the residual.

    y is the demodulated (N,) block, x_known the (N,) pilot symbols, and
    coarse_grid (delays, Dopplers) of integer bins in 0..N-1 and within
    +-N/2. Raises ValueError for other shapes or bins, P < 1, a
    refine_factor < 2 with refinement, or OTFS pulses without T_tx = T_rx^H.
    """
    y = np.asarray(y)
    x_known = np.asarray(x_known)
    N = spec.n
    if y.shape != (N,) or x_known.shape != (N,):
        raise ValueError(f"y and x_known must have length {N}")
    if P < 1:
        raise ValueError("P must be >= 1")
    grid = _ml_grid(spec, coarse_grid, refine_levels, refine_factor)
    s = spec._tx(x_known)
    return _ml_fit(spec, grid, spec._tx(y.astype(complex)), s, float(np.real(np.vdot(s, s))), P)


def _ml_fit(spec: WaveformSpec, grid: _MlGrid, r: np.ndarray, s: np.ndarray, energy: float,
            P: int) -> list[RadarTargetEstimate]:
    """indirect_csi_ml on a validated grid (_ml_grid), in time domain: r = T_tx y,
    s = T_tx x_known and energy = |s|^2, float(np.real(np.vdot(s, s)))."""
    if energy == 0.0:  # every score is -inf: each target is the first cell, with gain 0
        return [RadarTargetEstimate(float(grid.ells[0]), float(grid.dops[0]), 0.0j)] * P
    rows = _delayed_rows(spec, s, grid.ells)

    def best(C):
        # (flat index, score, gain) of the first largest |C|^2 / |s|^2
        scores = np.abs(C.ravel()) ** 2 / energy
        c = int(np.argmax(scores))
        return c, float(scores[c]), complex(C.flat[c] / energy)

    estimates = []
    for _ in range(P):
        c, score, gain = best(_correlate(r, rows, grid.coarse))
        i, j = divmod(c, grid.dops.size)
        f, doppler = float(grid.dops[j]), np.conj(grid.coarse[j])
        for step, table in grid.levels:
            k, sc, g = best(_correlate(r, rows[i] * doppler, table))
            if sc > score:
                score, gain, f, doppler = sc, g, f + grid.ks[k] * step, doppler * np.conj(table[k])
        r = r - gain * (rows[i] * doppler)
        estimates.append(RadarTargetEstimate(float(grid.ells[i]), f, gain))
    return estimates


@lru_cache(maxsize=8)
def _trial_tables(spec: WaveformSpec, ell_max: int, f_max: int, refine_levels: int,
                  refine_factor: int) -> tuple[_ChannelCsi, _MlGrid]:
    """The direct-CSI tables and the ML grid of _sense_trials on the window
    0..ell_max x -f_max..f_max, the matched filter's window too: built once
    per sweep, not once per chunk."""
    window = (range(ell_max + 1), range(-f_max, f_max + 1))
    return _ChannelCsi(spec, ell_max + 1), _ml_grid(spec, window, refine_levels, refine_factor)


def _sense_trials(spec: WaveformSpec, chan_config: ChannelConfig, constellation: Constellation,
                  snr_db: float, doppler_mode: str, seed: int, keys, refine_levels: int,
                  refine_factor: int) -> list[tuple[list, dict]]:
    """Sensing trials of the substream keys `keys`: (truth pairs, estimates per
    method) each. A trial is the BER frame of its key (link._draw_frames),
    and each method looks for chan_config.P targets on the window
    0..ell_max x -f_max..f_max; no method demodulates it.
    """
    (_, delays, dopplers), [(_, diags)], _, [(s_cp, r)] = _draw_frames(
        [spec], chan_config, constellation, [snr_db], doppler_mode, seed, keys
    )
    r = r[:, 0]
    ell_max, f_max, P = chan_config.ell_max, chan_config.f_max, chan_config.P
    csi, ml_grid = _trial_tables(spec, ell_max, f_max, refine_levels, refine_factor)
    # the matched filter's plain cyclic pilot rows; ml_grid.coarse is its Doppler table
    cyclic = (np.arange(spec.n) - ml_grid.ells[:, None]) % spec.n
    trials = []
    for b, s in enumerate(s_cp[:, spec.cp_len :]):
        mf = DelayDopplerMap(ml_grid.ells.astype(float), ml_grid.dops,
                             _correlate(r[b], s[cyclic], ml_grid.coarse))
        s_energy = float(np.real(np.vdot(s, s)))
        ests = {
            "matched_filter": [
                RadarTargetEstimate(d, f, complex(mf.values[int(d), int(f) + f_max] / s_energy))
                for d, f in mf.top_peaks(P)
            ],
            "direct_csi": csi(diags[b], P),
            "indirect_ml": _ml_fit(spec, ml_grid, r[b], s, s_energy, P),
        }
        trials.append((list(zip(delays[b].tolist(), dopplers[b].tolist())), ests))
    return trials


def _check_radar(f_c: float, geometry: str) -> None:
    """The arguments radar_convert and radar_invert share: a finite f_c > 0 and
    a known geometry."""
    if not 0 < f_c < math.inf:  # NaN fails too
        raise ValueError(f"carrier frequency must be positive, got {f_c}")
    if geometry not in ("monostatic", "bistatic"):
        raise ValueError(f"unknown geometry {geometry!r}")


def radar_convert(tau_s: float, nu_hz: float, f_c: float, geometry: str = "monostatic") -> tuple[float, float]:
    """Map (delay, Doppler) to (reported distance [m], radial velocity [m/s]).

    The effective propagation range is c*tau and the velocity c*nu/(2*f_c).
    Monostatic geometry reports half the round-trip range as the target
    distance; bistatic reports the total propagation distance unprojected.
    """
    _check_radar(f_c, geometry)
    r = LIGHT_SPEED * tau_s
    v = LIGHT_SPEED * nu_hz / (2.0 * f_c)
    if geometry == "monostatic":
        r = r / 2.0
    return r, v


def radar_invert(range_m: float, velocity_mps: float, f_c: float, geometry: str = "monostatic") -> tuple[float, float]:
    """Inverse of radar_convert for the same f_c and geometry."""
    _check_radar(f_c, geometry)
    r = range_m * 2.0 if geometry == "monostatic" else range_m
    return r / LIGHT_SPEED, 2.0 * f_c * velocity_mps / LIGHT_SPEED


@dataclass(frozen=True)
class SensingErrors:
    rmse_delay: float
    rmse_doppler: float
    misdetections: int


def _as_pairs(items) -> list[tuple[float, float]]:
    out = []
    for it in items:
        if isinstance(it, RadarTargetEstimate):
            out.append((it.delay_norm_hat, it.doppler_norm_hat))
        else:
            d, f = it
            out.append((float(d), float(f)))
    return out


def sensing_rmse(estimates, truth) -> SensingErrors:
    """Per-dimension RMSE after greedy nearest pairing in the (ell, f) plane.

    Cardinality mismatches are not an error; the unpaired surplus is counted
    as misdetections and the RMSE covers the paired subset.
    """
    est = _as_pairs(estimates)
    tru = _as_pairs(truth)
    pairs = []
    free_e, free_t = set(range(len(est))), set(range(len(tru)))
    dist = [
        (math.hypot(est[i][0] - tru[j][0], est[i][1] - tru[j][1]), i, j)
        for i in range(len(est))
        for j in range(len(tru))
    ]
    dist.sort()
    for _, i, j in dist:
        if i in free_e and j in free_t:
            pairs.append((i, j))
            free_e.discard(i)
            free_t.discard(j)
    if not pairs:
        return SensingErrors(math.nan, math.nan, max(len(est), len(tru)))
    d_err = [(est[i][0] - tru[j][0]) ** 2 for i, j in pairs]
    f_err = [(est[i][1] - tru[j][1]) ** 2 for i, j in pairs]
    return SensingErrors(
        rmse_delay=math.sqrt(sum(d_err) / len(pairs)),
        rmse_doppler=math.sqrt(sum(f_err) / len(pairs)),
        misdetections=len(free_e) + len(free_t),
    )

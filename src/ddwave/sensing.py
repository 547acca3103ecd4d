"""Delay-Doppler sensing: correlation maps, CSI-based extraction, grid-search ML.

Three method families over the same target model. The matched-filter map
correlates raw sequences, and the self-ambiguity is that map of a frame
against itself. Direct extraction reads integer targets off the effective
channel G on each candidate's predicted support: from a given G in one
gather, or from the channel itself through the closed form of G in H's
ell_max + 1 cyclic diagonals, which never builds G. The indirect route fits
path parameters to a demodulated pilot frame by greedy successive
cancellation over a coarse-to-fine grid. Unit-path responses come as
(C, N) candidate stacks, each through one receive transform. No routine
here builds an N x N array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import _wrap_window, delay_diagonals, doppler_phases
from .modem import AfdmSpec, OfdmSpec, WaveformSpec, _support_indices, afdm_shift, modulate

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
    if np.any(np.abs(delay_bins - np.round(delay_bins)) > 1e-9):
        raise ValueError("fractional delay bins are unsupported (integer-delay scope)")
    if np.any((delay_bins < 0) | (delay_bins > N - 1)):
        raise ValueError(f"delay bins must lie in 0..{N - 1}")
    if np.any(np.abs(doppler_bins) > N / 2):
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
    n = np.arange(N)
    E = np.exp(-2j * np.pi * np.outer(dops, n) / N)
    lagged = np.stack([r * np.conj(np.roll(s_known, ell)) for ell in ells])
    return DelayDopplerMap(ells.astype(float), dops, lagged @ E.T)


def ambiguity_map(s: np.ndarray, delay_bins, doppler_bins) -> DelayDopplerMap:
    """Cyclic self-ambiguity A[l, f] = sum_n s[n] conj(s[(n-l) mod N]) e^{j2pi f n/N}.

    This is the matched-filter map of s against itself at the negated
    Doppler bins, labelled with the requested ones.
    """
    dops = np.asarray(doppler_bins, dtype=float)
    m = matched_filter_map(s, s, delay_bins, -dops)
    return DelayDopplerMap(m.delay_bins, dops, m.values)


def _unit_responses(spec: WaveformSpec, s: np.ndarray, ells, doppler: np.ndarray) -> np.ndarray:
    """demodulate(H1 s) for unit-gain single paths H1, one row per candidate.

    Row c transforms phi_ell[n] * s[(n - ell) mod N] * doppler[c, n] with
    ell = ells[c] and phi_ell its window of spec.wrap: the unit path at
    (ell, f) applied to the samples s when doppler[c] = e^{j2pi f n/N}, so
    G1(ell, f) x when s = modulate(x). The whole (C, N) stack takes one
    receive transform.
    """
    ells = np.asarray(ells, dtype=np.intp)
    delayed = _wrap_window(spec.wrap, ells) * s[(np.arange(spec.n) - ells[:, None]) % spec.n]
    return spec._rx(delayed * doppler)


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


def _top_targets(spec, ells, fs, scores, entries, P, threshold) -> list[RadarTargetEstimate]:
    """Rank the candidates and fit the gains of the top P; both direct routes end here.

    Ties at the cut rank break toward smaller ell, then smaller f, and a
    candidate scoring below threshold (default 1/(2N)) is dropped.
    `entries(c)` gives G on the supports of the candidates c. A winner's
    gain is the mean of those entries divided entrywise by the unit-gain
    probe G1 on the same support. Inside the injective region G1 has one
    entry per row, so its support entries are the row sums G1 @ 1: one
    stacked transform for all winners, no matrix. The probe supplies the
    deterministic per-entry phase.
    """
    if threshold is None:
        threshold = 1.0 / (2 * spec.n)
    top = np.array([c for c in np.lexsort((fs, ells, -scores))[:P] if not scores[c] < threshold], dtype=int)
    if top.size == 0:
        return []
    ones = modulate(spec, np.ones(spec.n, dtype=complex))
    probes = _unit_responses(spec, ones, ells[top], doppler_phases(spec.n, fs[top]))
    gains = np.mean(entries(top) / probes, axis=1)
    return [RadarTargetEstimate(float(ells[c]), float(fs[c]), complex(g)) for c, g in zip(top, gains)]


def direct_csi_extract(
    G: np.ndarray,
    spec: WaveformSpec,
    P: int,
    threshold: float | None = None,
) -> list[RadarTargetEstimate]:
    """Read integer target parameters straight off an effective channel matrix.

    Scores every candidate (ell, f_int) by the mean magnitude of G over its
    predicted support, read in one gather, keeps the top P, and fits each
    winner's gain against a unit-gain probe (see _top_targets). Given the
    channel instead of G, _direct_csi_from_channel returns the same
    estimates without building G.
    """
    G = np.asarray(G)
    if G.shape != (spec.n, spec.n):
        raise ValueError(f"G must be {spec.n} x {spec.n}, got {G.shape}")
    ells, fs = _integer_candidates(spec)
    entries = G[_support_indices(spec, ells, fs)]
    return _top_targets(spec, ells, fs, np.abs(entries).mean(axis=1), entries.__getitem__, P, threshold)


def _direct_csi_from_channel(chan, spec: WaveformSpec, P: int) -> list[RadarTargetEstimate]:
    """direct_csi_extract(effective_channel(spec, chan), spec, P) without G.

    The support entries come from the closed form of G in H's cyclic
    diagonals (_channel_support): O(C N) for C candidates, no N x N array.
    """
    if chan.config.N != spec.n:
        raise ValueError(f"channel block size {chan.config.N} != waveform size {spec.n}")
    ells, fs = _integer_candidates(spec)
    scores, entries = _channel_support(spec, delay_diagonals(chan, spec.wrap), ells, fs)
    return _top_targets(spec, ells, fs, scores, entries, P, None)


def _channel_support(spec, diags: np.ndarray, ells, fs):
    """Mean support magnitudes of G = T_rx H T_tx per candidate, and a reader of its support entries.

    diags is delay_diagonals(H, spec.wrap): row ell holds
    d_ell[n] = H[n, (n - ell) mod N]. The reader maps candidate indices to
    G[rows, cols] on their supports, in the layout of _support_indices.

    AFDM: with D_ell = FFT(c1 * d_ell * conj(c1[(n - ell) mod N])) / N,
    G[n, m] = c2[n] conj(c2[m]) sum_ell D_ell[(n - m) mod N] e^{-j2pi ell m/N}.
    On the support of candidate c, m = (n + s_c) mod N, so its entries are
    the chirps times Q[c, m] = sum_ell D_ell[-s_c mod N] e^{-j2pi ell m/N},
    one (C, E) @ (E, N) product. The chirps have unit modulus and n -> m
    permutes, so the score is the row mean of |Q|, with no gather.

    OTFS, row (a, b) = a*K + b with a on the L axis: G[(a, b), (a', b')] is
    p_rx[b] p_tx[b'] times the sum, over the ell with (b - ell) mod K = b',
    of e^{j2pi a' q/L} Dh_ell[(a - a') mod L, b], where q = floor((b - ell)/K)
    and Dh_ell[u, b] = DFT_L(d_ell[. K + b])[u] / L.
    """
    N, E = spec.n, diags.shape[0]
    if isinstance(spec, AfdmSpec):
        ch1, ch2, ch1_conj, ch2_conj = spec._chirps
        lagged = ch1_conj[(np.arange(N) - np.arange(E)[:, None]) % N]
        D = np.fft.fft(ch1 * diags * lagged, axis=-1) / N
        Q = D[:, -afdm_shift(spec, ells, fs) % N].T @ doppler_phases(N, -np.arange(E))

        def entries(c):
            rows, cols = _support_indices(spec, ells[c], fs[c])
            return ch2[rows] * ch2_conj[cols] * np.take_along_axis(Q[c], cols, axis=-1)

        return np.abs(Q).mean(axis=1), entries
    K, L = spec.k, spec.l
    Dh = np.fft.fft(diags.reshape(E, L, K), axis=1) / L
    _, cols = _support_indices(spec, ells, fs)
    a_src, b_src = np.divmod(cols.reshape(-1, L, K), K)
    b = np.arange(K)
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    G = np.zeros(a_src.shape, dtype=complex)
    for ell in range(E):
        hit = (ells - ell) % K == 0  # the candidates whose support this diagonal reaches
        G[hit] += roots[a_src[hit] * ((b - ell) // K) % L] * Dh[ell, fs[hit] % L][:, None, :]
    for pulse, cell in ((spec.pulse_rx, b), (spec.pulse_tx, b_src)):
        if pulse is not None:
            G *= np.asarray(pulse, dtype=complex)[cell]
    G = G.reshape(len(ells), N)
    return np.abs(G).mean(axis=1), G.__getitem__


def _best_fit(Zh: np.ndarray, energy: np.ndarray, resid: np.ndarray) -> tuple[int, float, complex]:
    """(row, score, gain) of the first row z maximizing |z^H r|^2 / |z|^2.

    Zh holds the conjugated rows. A zero-energy row scores -inf and fits gain 0.
    """
    corr = Zh @ resid
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(energy > 0.0, np.abs(corr) ** 2 / energy, -np.inf)
    c = int(np.argmax(scores))
    gain = complex(corr[c] / energy[c]) if energy[c] > 0.0 else 0.0j
    return c, float(scores[c]), gain


def _stack_energies(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conjugated rows of Z and their energies |z|^2."""
    Zh = Z.conj()
    return Zh, np.einsum("cn,cn->c", Zh, Z).real


def indirect_csi_ml(
    y: np.ndarray,
    x_known: np.ndarray,
    spec: WaveformSpec,
    P: int,
    coarse_grid: tuple,
    refine_levels: int = 0,
    refine_factor: int = 10,
) -> list[RadarTargetEstimate]:
    """Grid-search ML fit of P paths to a known-pilot frame.

    Greedy successive cancellation: for each target, score every (ell, f)
    of the coarse grid. At a candidate the best gain is the closed-form
    scalar least-squares fit of the residual r onto the unit response
    z = G1(ell, f) x, and the candidate minimizing the residual L2 norm,
    that is maximizing |z^H r|^2 / |z|^2, wins; on a tie the first in
    ell-major, f-ascending order does. The winner's Doppler is then refined
    on a grid whose step shrinks by refine_factor per level (delays stay
    integer), and a refined candidate replaces the incumbent only with a
    strictly higher score. The fitted component is subtracted, and the
    search repeats on the residual.

    The unit responses are demodulate(H1 s) of the pilot's samples
    s = modulate(x), built as candidate stacks with one receive transform
    each (_unit_responses). The coarse stack does not depend on the
    residual, so it is built once per call and scored against every
    residual with one product. Each refinement level is one stack of
    2 * refine_factor rows (the incumbent is not scored again), its Doppler
    rows the incumbent's Doppler times a per-level table built once per
    call. A call makes 1 + P * refine_levels transforms.

    Parameters
    ----------
    y : demodulated received block (length N)
    x_known : the transmitted symbol block (pilot, fully known)
    coarse_grid : (delay_range, doppler_range) iterables of integer bins,
        delays in 0..N-1 and Dopplers within +-N/2
    """
    y = np.asarray(y)
    x_known = np.asarray(x_known)
    N = spec.n
    if y.shape != (N,) or x_known.shape != (N,):
        raise ValueError(f"y and x_known must have length {N}")
    if P < 1:
        raise ValueError("P must be >= 1")
    if refine_levels > 0 and refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    ells, dops = _check_bins(list(coarse_grid[0]), list(coarse_grid[1]), N)
    if not ells.size or not dops.size:
        raise ValueError("coarse grid must be nonempty in both dimensions")
    if np.any(dops != np.round(dops)):
        raise ValueError("coarse Doppler bins must be integers")
    cand_ell, cand_f = (g.ravel() for g in np.meshgrid(ells, dops, indexing="ij"))

    s = modulate(spec, x_known)
    Z = _unit_responses(spec, s, cand_ell, doppler_phases(N, cand_f))
    Zh, energy = _stack_energies(Z)
    ks = [k for k in range(-refine_factor, refine_factor + 1) if k != 0]
    steps = [float(refine_factor) ** (-level) for level in range(1, refine_levels + 1)]
    tables = [doppler_phases(N, [k * step for k in ks]) for step in steps]

    resid = y.astype(complex)
    estimates = []
    for _ in range(P):
        c, score, gain = _best_fit(Zh, energy, resid)
        ell, f, z = int(cand_ell[c]), float(cand_f[c]), Z[c]
        for step, table in zip(steps, tables):
            Z_ref = _unit_responses(spec, s, [ell], doppler_phases(N, f) * table)
            j, sc, g = _best_fit(*_stack_energies(Z_ref), resid)
            if sc > score:
                score, gain, z, f = sc, g, Z_ref[j], f + ks[j] * step
        resid = resid - gain * z
        estimates.append(RadarTargetEstimate(float(ell), f, gain))
    return estimates


def radar_convert(tau_s: float, nu_hz: float, f_c: float, geometry: str = "monostatic") -> tuple[float, float]:
    """Map (delay, Doppler) to (reported distance [m], radial velocity [m/s]).

    The effective propagation range is c*tau and the velocity c*nu/(2*f_c).
    Monostatic geometry reports half the round-trip range as the target
    distance; bistatic reports the total propagation distance unprojected.
    """
    if f_c <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c}")
    if geometry not in ("monostatic", "bistatic"):
        raise ValueError(f"unknown geometry {geometry!r}")
    r = LIGHT_SPEED * tau_s
    v = LIGHT_SPEED * nu_hz / (2.0 * f_c)
    if geometry == "monostatic":
        r = r / 2.0
    return r, v


def radar_invert(range_m: float, velocity_mps: float, f_c: float, geometry: str = "monostatic") -> tuple[float, float]:
    """Inverse of radar_convert for the same f_c and geometry."""
    if f_c <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c}")
    if geometry not in ("monostatic", "bistatic"):
        raise ValueError(f"unknown geometry {geometry!r}")
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

"""Delay-Doppler sensing: correlation maps, CSI-based extraction, grid-search ML.

Three method families over the same target model. The matched-filter map
correlates raw sequences, and the self-ambiguity is that map of a frame
against itself. Direct extraction reads integer targets off a known
effective channel matrix G: it scores every candidate on its predicted
support in one gather. The indirect route fits path parameters to a
demodulated pilot frame by greedy successive cancellation over a
coarse-to-fine grid. Both CSI routes get a unit path's response from the
waveform's own transforms and the channel's path operator: O(N log N) per
path, and no N x N array besides the caller's G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import PathParams, apply_paths
from .modem import AfdmSpec, OfdmSpec, WaveformSpec, _support_indices, demodulate, modulate

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
    return delay_bins.astype(int), doppler_bins


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


def _unit_response(spec: WaveformSpec, s: np.ndarray, ell: int, f: float) -> np.ndarray:
    """demodulate(H1 s) for the unit-gain path H1 at (ell, f): G1 x when s = modulate(x)."""
    return demodulate(spec, apply_paths(s, (PathParams(1.0, ell, f),), spec.cp_phase()))


def _integer_candidates(spec: WaveformSpec) -> tuple[np.ndarray, np.ndarray]:
    """(ell, f_int) arrays of every pair inside the waveform's injective support region.

    The pairs run ell-major, each ell with f_int ascending.
    """
    if isinstance(spec, AfdmSpec):
        stride = spec.delay_stride
        f_lim = (stride - 1) // 2
        ell_lim = max((spec.n - 2 * f_lim - 1) // stride, 0) if stride > 0 else 0
        ell_count = min(ell_lim, spec.n - 1) + 1
    else:
        f_lim = (spec.l - 1) // 2
        ell_count = spec.k
    ells, fs = np.meshgrid(np.arange(ell_count), np.arange(-f_lim, f_lim + 1), indexing="ij")
    return ells.ravel(), fs.ravel()


def direct_csi_extract(
    G: np.ndarray,
    spec: WaveformSpec,
    P: int,
    threshold: float | None = None,
) -> list[RadarTargetEstimate]:
    """Read integer target parameters straight off an effective channel matrix.

    Scores every candidate (ell, f_int) by the mean magnitude of G over its
    predicted support, keeps the top P, and recovers each gain as the mean of
    G divided entrywise by the unit-gain probe G1 on the same support. Inside
    the injective region G1 has one entry per row, so its support entries are
    the row sums G1 @ 1: one transform pair per winner, no matrix. The probe
    supplies the deterministic per-entry phase, so no closed form is needed.
    Ties at the cut rank break toward smaller ell, then smaller f.
    """
    if isinstance(spec, OfdmSpec):
        raise ValueError("direct extraction is unsupported for OFDM")
    G = np.asarray(G)
    if G.shape != (spec.n, spec.n):
        raise ValueError(f"G must be {spec.n} x {spec.n}, got {G.shape}")
    if threshold is None:
        threshold = 1.0 / (2 * spec.n)
    ells, fs = _integer_candidates(spec)
    rows, cols = _support_indices(spec, ells, fs)
    scores = np.abs(G)[rows, cols].mean(axis=1)
    ones = modulate(spec, np.ones(spec.n, dtype=complex))
    out = []
    for c in np.lexsort((fs, ells, -scores))[:P]:
        if scores[c] < threshold:
            continue
        ell, f = int(ells[c]), int(fs[c])
        probe = _unit_response(spec, ones, ell, f)[rows[c]]
        gain = complex(np.mean(G[rows[c], cols[c]] / probe))
        out.append(RadarTargetEstimate(float(ell), float(f), gain))
    return out


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

    Greedy successive cancellation: for each target, scan the integer
    (ell, f) grid; at a candidate the best gain is the closed-form scalar
    least-squares fit of the residual onto G1(ell, f) x, computed as
    demodulate(H1(ell, f) s) from the pilot's samples s = modulate(x) in
    O(N log N) per candidate, and the candidate
    minimizing the residual L2 norm wins. The winner's Doppler is then
    refined on a grid whose step shrinks by refine_factor per level (delays
    stay integer), the fitted component is subtracted, and the search
    repeats on the residual.

    Parameters
    ----------
    y : demodulated received block (length N)
    x_known : the transmitted symbol block (pilot, fully known)
    coarse_grid : (delay_range, doppler_range) iterables of integers
    """
    y = np.asarray(y)
    x_known = np.asarray(x_known)
    if y.shape != (spec.n,) or x_known.shape != (spec.n,):
        raise ValueError(f"y and x_known must have length {spec.n}")
    if P < 1:
        raise ValueError("P must be >= 1")
    if refine_levels > 0 and refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    ell_range = [int(e) for e in coarse_grid[0]]
    f_range = [int(f) for f in coarse_grid[1]]
    if not ell_range or not f_range:
        raise ValueError("coarse grid must be nonempty in both dimensions")

    s = modulate(spec, x_known)

    def score(ell: int, f: float, resid: np.ndarray):
        z = _unit_response(spec, s, ell, f)
        energy = float(np.real(np.vdot(z, z)))
        if energy == 0.0:
            return -np.inf, 0.0 + 0.0j, z
        corr = np.vdot(z, resid)
        return float(np.abs(corr) ** 2 / energy), complex(corr / energy), z

    resid = y.astype(complex).copy()
    estimates = []
    for _ in range(P):
        best = None
        for ell in ell_range:
            for f in f_range:
                sc, gain, z = score(ell, float(f), resid)
                if best is None or sc > best[0]:
                    best = (sc, ell, float(f), gain, z)
        _, ell_hat, f_hat, gain, z = best
        for level in range(1, refine_levels + 1):
            step = float(refine_factor) ** (-level)
            for k in range(-refine_factor, refine_factor + 1):
                f_cand = f_hat + k * step
                sc, g_cand, z_cand = score(ell_hat, f_cand, resid)
                if sc > best[0]:
                    best = (sc, ell_hat, f_cand, g_cand, z_cand)
            _, ell_hat, f_hat, gain, z = best
        resid = resid - gain * z
        estimates.append(RadarTargetEstimate(float(ell_hat), float(f_hat), gain))
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

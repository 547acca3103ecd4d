"""Tests for the sensing module: ambiguity maps, CSI extraction, grid-search ML."""

import numpy as np
import pytest

import oracle
from ddwave.channel import (
    ChannelConfig,
    ChannelRealization,
    PathParams,
    apply_paths,
    sample_paths,
    time_domain_apply,
)
from ddwave.modem import (
    AfdmSpec,
    OfdmSpec,
    OtfsSpec,
    _support_indices,
    afdm_tune,
    demodulate,
    effective_channel,
    modulate,
    prepend_cp,
)
from ddwave.sensing import (
    LIGHT_SPEED,
    DelayDopplerMap,
    RadarTargetEstimate,
    SensingErrors,
    ambiguity_map,
    direct_csi_extract,
    indirect_csi_ml,
    matched_filter_map,
    radar_convert,
    radar_invert,
    sensing_rmse,
)
from ddwave.sensing import _direct_csi_from_channel, _integer_candidates


def chan_of(n, paths, ell_max=3, f_max=2, cp_len=3):
    cfg = ChannelConfig(N=n, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max,
                        P=len(paths), cp_len=cp_len)
    return ChannelRealization(cfg, tuple(paths))


def tuned_afdm(n=36, ell_max=3, f_max=2, xi=0, cp_len=3):
    c1, c2 = afdm_tune(ell_max, f_max, xi, n)
    return AfdmSpec(n, c1, c2, xi=xi, cp_len=cp_len)


def random_frame(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


THREE_TARGETS = [(0, 0.0), (1, -2.0), (3, 1.0)]
THREE_GAINS = [0.9 * np.exp(0.3j), 0.6 * np.exp(-1.1j), 0.4 * np.exp(2.0j)]


def three_target_channel(n=36):
    paths = [PathParams(g, ell, f) for g, (ell, f) in zip(THREE_GAINS, THREE_TARGETS)]
    return chan_of(n, paths)


# ---------------------------------------------------------------- ambiguity


def test_ambiguity_origin_equals_frame_energy():
    s = random_frame(48, 0)
    amb = ambiguity_map(s, [0], [0])
    assert abs(amb.values[0, 0] - np.vdot(s, s)) < 1e-12


def test_ambiguity_bounded_by_origin_value():
    # Cauchy-Schwarz: no cell can exceed the zero-lag zero-Doppler energy.
    s = random_frame(32, 1)
    amb = ambiguity_map(s, list(range(32)), list(range(-16, 17)))
    origin = abs(amb.values[0, 16])
    assert np.all(np.abs(amb.values) <= origin + 1e-9)


def test_ambiguity_matches_naive_reference():
    s = random_frame(24, 2)
    ells = list(range(24))
    fs = list(range(-12, 13))
    amb = ambiguity_map(s, ells, fs)
    ref = oracle.ambiguity(s, ells, fs)
    assert np.max(np.abs(amb.values - ref)) < 1e-9


def test_quadratic_chirp_ambiguity_concentrates_on_a_ridge():
    # s[n] = e^{j pi n^2 / N} couples lag and Doppler: each row's peak sits
    # where f + ell = 0 (mod N), and essentially all energy lives there.
    N = 32
    n = np.arange(N)
    s = np.exp(1j * np.pi * n**2 / N)
    fs = list(range(-N // 2, N // 2 + 1))
    amb = ambiguity_map(s, list(range(N)), fs)
    mags = np.abs(amb.values)
    on = off = 0.0
    for i in range(N):
        j_best = int(np.argmax(mags[i]))
        assert (fs[j_best] + i) % N == 0
        for j, f in enumerate(fs):
            if (f + i) % N == 0:
                on += mags[i, j] ** 2
            else:
                off += mags[i, j] ** 2
    assert off < 1e-9 * on


def test_ambiguity_rejects_fractional_delay():
    s = random_frame(16, 3)
    with pytest.raises(ValueError, match="integer"):
        ambiguity_map(s, [0.5], [0])


def test_ambiguity_rejects_out_of_range_bins():
    s = random_frame(16, 4)
    with pytest.raises(ValueError):
        ambiguity_map(s, [16], [0])
    with pytest.raises(ValueError):
        ambiguity_map(s, [0], [9])


def test_near_integer_delay_bins_round_to_the_nearest_bin():
    s = random_frame(16, 5)
    mf = matched_filter_map(s, s, [3 - 1e-12, 1 + 1e-12], [0])
    assert mf.delay_bins.tolist() == [3.0, 1.0]
    assert np.array_equal(mf.values, matched_filter_map(s, s, [3, 1], [0]).values)


def test_random_qpsk_frame_peak_unique_at_origin():
    # unit-modulus frame: origin value is exactly N and dominates every
    # sidelobe for each of 100 independent draws
    rng = np.random.default_rng(3)
    N = 64
    for _ in range(100):
        s = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, N)))
        amb = ambiguity_map(s, list(range(N)), list(range(-N // 2, N // 2)))
        mags = np.abs(amb.values)
        assert abs(mags[0, N // 2] - N) < 1e-9
        rest = mags.copy()
        rest[0, N // 2] = 0.0
        assert mags[0, N // 2] > rest.max()


# ------------------------------------------------------------ map container


def test_map_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        DelayDopplerMap(np.array([0.0]), np.array([0.0, 1.0]), np.zeros((2, 2), dtype=complex))


def test_map_non_finite_rejected():
    bad = np.array([[np.nan + 0j]])
    with pytest.raises(ValueError, match="finite"):
        DelayDopplerMap(np.array([0.0]), np.array([0.0]), bad)


def test_top_peaks_orders_by_magnitude_then_bins():
    vals = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    m = DelayDopplerMap(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), vals)
    assert m.top_peaks(4) == [(0.0, -1.0), (1.0, 0.0), (0.0, 0.0), (1.0, -1.0)]


def test_top_peaks_ties_break_on_bin_values_not_positions():
    # bins listed in descending order: value order and index order disagree
    vals = np.ones((2, 2), dtype=complex)
    m = DelayDopplerMap(np.array([1.0, 0.0]), np.array([2.0, -1.0]), vals)
    assert m.top_peaks(4) == [(0.0, -1.0), (0.0, 2.0), (1.0, -1.0), (1.0, 2.0)]


# ------------------------------------------------------------ matched filter


def test_matched_filter_self_correlation_peaks_at_origin():
    s = random_frame(36, 5)
    mf = matched_filter_map(s, s, list(range(4)), list(range(-2, 3)))
    assert mf.argmax() == (0.0, 0.0)
    assert abs(mf.values[0, 2] - np.vdot(s, s)) < 1e-12


def test_matched_filter_locates_single_path():
    spec = tuned_afdm()
    x = random_frame(36, 6)
    s = modulate(spec, x)
    chan = chan_of(36, [PathParams(1.0, 2, -1.0)])
    r = time_domain_apply(prepend_cp(spec, s), chan)
    mf = matched_filter_map(r, s, list(range(4)), list(range(-2, 3)))
    assert mf.argmax() == (2.0, -1.0)


def test_matched_filter_scaling_invariance():
    s = random_frame(36, 7)
    r = random_frame(36, 8)
    grid_d, grid_f = list(range(4)), list(range(-2, 3))
    base = matched_filter_map(r, s, grid_d, grid_f)
    scaled = matched_filter_map(2.0 * r, s, grid_d, grid_f)
    assert np.max(np.abs(scaled.values - 2.0 * base.values)) < 1e-9
    assert scaled.argmax() == base.argmax()


def test_matched_filter_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        matched_filter_map(random_frame(8, 9), random_frame(16, 9), [0], [0])


# ---------------------------------------------------------------- direct CSI


def test_direct_extraction_identity_channel():
    spec = tuned_afdm()
    ests = direct_csi_extract(np.eye(36, dtype=complex), spec, 1)
    assert len(ests) == 1
    assert (ests[0].delay_norm_hat, ests[0].doppler_norm_hat) == (0.0, 0.0)
    assert abs(ests[0].gain_hat - 1.0) < 1e-9


@pytest.mark.parametrize("spec", [tuned_afdm(), OtfsSpec(6, 6, cp_len=3)],
                         ids=["afdm", "otfs"])
def test_direct_extraction_recovers_three_targets(spec):
    G = effective_channel(spec, three_target_channel())
    ests = direct_csi_extract(G, spec, 3)
    got = sorted((int(e.delay_norm_hat), e.doppler_norm_hat) for e in ests)
    assert got == sorted(THREE_TARGETS)
    by_bin = {(int(e.delay_norm_hat), e.doppler_norm_hat): e.gain_hat for e in ests}
    for g, key in zip(THREE_GAINS, THREE_TARGETS):
        assert abs(by_bin[key] - g) < 1e-6


def test_direct_extraction_single_path_gain():
    spec = tuned_afdm()
    h = 0.83 * np.exp(1.4j)
    G = effective_channel(spec, chan_of(36, [PathParams(h, 3, 1.0)]))
    est = direct_csi_extract(G, spec, 1)[0]
    assert abs(est.gain_hat - h) < 1e-6


def test_direct_extraction_tie_breaks_toward_smaller_delay():
    # paths (2, 0) and (0, 2) have identical scores; smaller ell reports first
    spec = tuned_afdm()
    chan = chan_of(36, [PathParams(1.0, 2, 0.0), PathParams(1.0, 0, 2.0)])
    ests = direct_csi_extract(effective_channel(spec, chan), spec, 2)
    assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in ests] == [(0.0, 2.0), (2.0, 0.0)]


def test_direct_extraction_exact_ties_rank_by_delay_then_doppler():
    # G holds the same value on three candidate supports, so the scores tie exactly
    spec = tuned_afdm()
    G = np.zeros((36, 36), dtype=complex)
    for ell, f in [(2, 0), (0, 2), (2, -1)]:
        G[_support_indices(spec, ell, f)] = 1.0
    ests = direct_csi_extract(G, spec, 3)
    assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in ests] == [
        (0.0, 2.0), (2.0, -1.0), (2.0, 0.0)
    ]


# (name, spec, tx/rx operators, prefix phase in cycles) of every support case
def _support_cases():
    afdm36, afdm64 = tuned_afdm(), tuned_afdm(64, xi=1)
    cases = [
        ("afdm-36", afdm36, oracle.afdm_ops(36, afdm36.c1, afdm36.c2),
         oracle.chirp_cp_cycles(afdm36.c1, 36)),
        ("afdm-64-xi1", afdm64, oracle.afdm_ops(64, afdm64.c1, afdm64.c2),
         oracle.chirp_cp_cycles(afdm64.c1, 64)),
    ]
    for k, l in [(6, 6), (4, 9), (3, 5)]:
        cases.append((f"otfs-{k}x{l}", OtfsSpec(k, l, cp_len=3), oracle.otfs_ops(k, l),
                      oracle.zero_cycles))
    return cases


SUPPORT_CASES = _support_cases()


@pytest.mark.parametrize("case", SUPPORT_CASES, ids=[c[0] for c in SUPPORT_CASES])
def test_batched_support_indices_match_scalar_calls_and_oracle(case):
    _, spec, (tx, rx), phase = case
    ells, fs = _integer_candidates(spec)
    rows, cols = _support_indices(spec, ells, fs)
    assert rows.shape == cols.shape == (len(ells), spec.n)
    scalar = [_support_indices(spec, int(e), int(f)) for e, f in zip(ells, fs)]
    assert np.array_equal(rows, np.stack([r for r, _ in scalar]))
    assert np.array_equal(cols, np.stack([c for _, c in scalar]))
    for c, (ell, f) in enumerate(zip(ells, fs)):
        G1 = oracle.effective_matrix(tx, rx, [(1.0, int(ell), float(f))], phase)
        assert frozenset(zip(rows[c].tolist(), cols[c].tolist())) == oracle.support_set(G1, 1e-6)


@pytest.mark.parametrize("case", SUPPORT_CASES, ids=[c[0] for c in SUPPORT_CASES])
def test_direct_extraction_gains_match_dense_probe(case):
    _, spec, (tx, rx), phase = case
    targets = [(0, 0), (1, -2), (2, 1)]
    paths = [(g, ell, float(f)) for g, (ell, f) in zip(THREE_GAINS, targets)]
    # noise makes the per-entry ratios differ, so each probe entry counts
    noise = 0.01 * random_frame(spec.n**2, 4).reshape(spec.n, spec.n)
    G = oracle.effective_matrix(tx, rx, paths, phase) + noise
    ests = direct_csi_extract(G, spec, 3)
    assert sorted((int(e.delay_norm_hat), int(e.doppler_norm_hat)) for e in ests) == sorted(targets)
    for e in ests:
        probe = oracle.effective_matrix(
            tx, rx, [(1.0, int(e.delay_norm_hat), e.doppler_norm_hat)], phase
        )
        rows, cols = np.array(sorted(oracle.support_set(probe, 1e-6))).T
        want = np.mean(G[rows, cols] / probe[rows, cols])
        assert abs(e.gain_hat - want) < 1e-12


@pytest.mark.parametrize("case", SUPPORT_CASES, ids=[c[0] for c in SUPPORT_CASES])
@pytest.mark.parametrize("mode", ["integer", "fractional"])
def test_direct_extraction_from_channel_matches_extraction_from_G(case, mode):
    _, spec, (tx, rx), phase = case
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=3, f_max=2, P=3, cp_len=3)
    chan = sample_paths(cfg, mode, np.random.default_rng(spec.n))
    G = oracle.effective_matrix(tx, rx, [(p.gain, p.delay_norm, p.doppler_norm) for p in chan.paths],
                                phase)
    for P in (1, 3, 5):
        got = _direct_csi_from_channel(chan, spec, P)
        want = direct_csi_extract(G, spec, P)
        assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in got] == \
            [(e.delay_norm_hat, e.doppler_norm_hat) for e in want]
        for a, b in zip(got, want):
            assert abs(a.gain_hat - b.gain_hat) < 1e-12


def test_direct_extraction_from_channel_rejects_size_mismatch():
    with pytest.raises(ValueError, match="block size"):
        _direct_csi_from_channel(three_target_channel(36), tuned_afdm(64), 1)


def test_candidates_stay_distinct_when_the_guard_is_wider_than_the_block():
    # tuned N = 3 with xi = 2: the chirp's Doppler window (+-2) is wider than the
    # block, so only the +-1 bins have distinct supports
    c1, c2 = afdm_tune(0, 0, 2, 3)
    spec = AfdmSpec(3, c1, c2, xi=2)
    ells, fs = _integer_candidates(spec)
    assert sorted(zip(ells.tolist(), fs.tolist())) == [(0, -1), (0, 0), (0, 1)]
    rows, cols = _support_indices(spec, ells, fs)
    assert len({frozenset(zip(r.tolist(), c.tolist())) for r, c in zip(rows, cols)}) == 3
    chan = ChannelRealization(ChannelConfig(N=3, f_s=1e6, f_c=1e9, ell_max=0, f_max=1, P=1, cp_len=0),
                              (PathParams(0.7j, 0, 1.0),))
    for est in (direct_csi_extract(effective_channel(spec, chan), spec, 1),
                _direct_csi_from_channel(chan, spec, 1)):
        assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in est] == [(0.0, 1.0)]
        assert abs(est[0].gain_hat - 0.7j) < 1e-12


def test_direct_extraction_threshold_drops_empty_candidates():
    spec = tuned_afdm()
    G = effective_channel(spec, chan_of(36, [PathParams(0.9, 1, -2.0)]))
    assert len(direct_csi_extract(G, spec, 3)) == 1
    assert len(direct_csi_extract(G, spec, 3, threshold=0.0)) == 3


def test_direct_extraction_rejects_ofdm():
    with pytest.raises(ValueError, match="OFDM"):
        direct_csi_extract(np.eye(16, dtype=complex), OfdmSpec(16), 1)


def test_direct_extraction_rejects_wrong_shape():
    with pytest.raises(ValueError, match="36"):
        direct_csi_extract(np.eye(16, dtype=complex), tuned_afdm(), 1)


# --------------------------------------------------------------- indirect ML


def pilot_observation(spec, chan, seed):
    x = random_frame(spec.n, seed)
    r = time_domain_apply(prepend_cp(spec, modulate(spec, x)), chan)
    return x, demodulate(spec, r)


GRID = (range(4), range(-2, 3))


def test_indirect_ml_integer_target_exact():
    spec = tuned_afdm(32, xi=1)
    h = 0.7 - 0.2j
    chan = chan_of(32, [PathParams(h, 1, -2.0)])
    x, y = pilot_observation(spec, chan, 7)
    est = indirect_csi_ml(y, x, spec, 1, GRID)[0]
    assert (est.delay_norm_hat, est.doppler_norm_hat) == (1.0, -2.0)
    assert abs(est.gain_hat - h) < 1e-9
    # single path: the fitted component reconstructs the observation
    G = effective_channel(spec, chan_of(32, [PathParams(est.gain_hat, 1, -2.0)]))
    assert np.linalg.norm(y - G @ x) < 1e-8


def test_indirect_ml_fractional_doppler_refined():
    spec = tuned_afdm(32, xi=1)
    h = 0.8 * np.exp(0.5j)
    chan = chan_of(32, [PathParams(h, 2, 1.3)])
    x, y = pilot_observation(spec, chan, 7)
    est = indirect_csi_ml(y, x, spec, 1, GRID, refine_levels=3, refine_factor=10)[0]
    assert est.delay_norm_hat == 2.0
    assert abs(est.doppler_norm_hat - 1.3) < 1e-3
    assert abs(est.gain_hat - h) < 1e-6


def test_indirect_ml_multiple_integer_targets_exact():
    spec = tuned_afdm(32, xi=1)
    chan = chan_of(32, [PathParams(0.9, 0, 1.0), PathParams(0.5j, 2, -1.0),
                        PathParams(-0.3, 3, 2.0)])
    x, y = pilot_observation(spec, chan, 8)
    ests = indirect_csi_ml(y, x, spec, 3, GRID)
    got = sorted((int(e.delay_norm_hat), e.doppler_norm_hat) for e in ests)
    assert got == [(0, 1.0), (2, -1.0), (3, 2.0)]


def test_indirect_ml_residual_shrinks_per_iteration():
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 11)
    ests = indirect_csi_ml(y, x, spec, 3, GRID)
    resid = y.copy()
    norms = [np.linalg.norm(resid)]
    for est in ests:
        probe = chan_of(spec.n, [PathParams(1.0, int(est.delay_norm_hat), est.doppler_norm_hat)])
        z = effective_channel(spec, probe) @ x
        resid = resid - est.gain_hat * z
        norms.append(np.linalg.norm(resid))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_indirect_ml_scaling_invariance():
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 11)
    base = indirect_csi_ml(y, x, spec, 3, GRID)
    scaled = indirect_csi_ml(3.5j * y, x, spec, 3, GRID)
    assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in base] == \
        [(e.delay_norm_hat, e.doppler_norm_hat) for e in scaled]
    for a, b in zip(base, scaled):
        assert abs(b.gain_hat - 3.5j * a.gain_hat) < 1e-9


def test_indirect_ml_argument_validation():
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 12)
    with pytest.raises(ValueError, match="nonempty"):
        indirect_csi_ml(y, x, spec, 1, ((), range(-2, 3)))
    with pytest.raises(ValueError, match="refine_factor"):
        indirect_csi_ml(y, x, spec, 1, GRID, refine_levels=1, refine_factor=1)
    with pytest.raises(ValueError, match="P"):
        indirect_csi_ml(y, x, spec, 0, GRID)
    with pytest.raises(ValueError, match="length"):
        indirect_csi_ml(y[:-1], x, spec, 1, GRID)


def test_indirect_ml_rejects_fractional_coarse_doppler():
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 12)
    with pytest.raises(ValueError, match="integer"):
        indirect_csi_ml(y, x, spec, 1, (range(4), [-1.0, 1.5]))


def test_indirect_ml_rejects_coarse_doppler_beyond_half_the_block():
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 12)
    with pytest.raises(ValueError, match="N/2"):
        indirect_csi_ml(y, x, spec, 1, (range(4), [0, 19]))


def test_indirect_ml_rejects_out_of_range_coarse_delay():
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 12)
    with pytest.raises(ValueError, match="delay bins"):
        indirect_csi_ml(y, x, spec, 1, ([0, 36], range(-2, 3)))
    with pytest.raises(ValueError, match="delay bins"):
        indirect_csi_ml(y, x, spec, 1, ([-1, 0], range(-2, 3)))


def reference_ml(y, x, spec, P, grid, refine_levels, refine_factor):
    """The per-candidate greedy search: one unit response and one fit per (ell, f) visited."""
    s = modulate(spec, x)

    def score(ell, f, resid):
        z = demodulate(spec, apply_paths(s, (PathParams(1.0, ell, f),), spec.wrap))
        energy = float(np.real(np.vdot(z, z)))
        if energy == 0.0:
            return -np.inf, 0.0j, z
        corr = np.vdot(z, resid)
        return float(np.abs(corr) ** 2 / energy), complex(corr / energy), z

    resid = y.astype(complex)
    out = []
    for _ in range(P):
        best = None
        for ell in grid[0]:
            for f in grid[1]:
                cand = score(ell, float(f), resid)
                if best is None or cand[0] > best[0]:
                    best = (cand[0], ell, float(f), cand[1], cand[2])
        for level in range(1, refine_levels + 1):
            step = float(refine_factor) ** (-level)
            f_hat = best[2]
            for k in range(-refine_factor, refine_factor + 1):
                cand = score(best[1], f_hat + k * step, resid)
                if cand[0] > best[0]:
                    best = (cand[0], best[1], f_hat + k * step, cand[1], cand[2])
        _, ell, f, gain, z = best
        resid = resid - gain * z
        out.append((float(ell), f, gain))
    return out


def unit_pulse(k, seed):
    return tuple(np.exp(2j * np.pi * np.random.default_rng(seed).random(k)))


def _ml_cases():
    """(name, spec, ell_max, f_max, paths) of the stacked-versus-scalar ML comparisons."""
    pulse49, pulse35 = unit_pulse(4, 1), unit_pulse(3, 2)
    return [
        ("afdm-256", tuned_afdm(256), 3, 2, 3),
        ("afdm-prime-37-xi1", tuned_afdm(37, f_max=1, xi=1), 3, 1, 3),
        ("otfs-4x9-pulses", OtfsSpec(4, 9, cp_len=3, pulse_tx=tuple(np.conj(pulse49)),
                                     pulse_rx=pulse49), 3, 2, 3),
        ("otfs-3x5-pulses", OtfsSpec(3, 5, cp_len=2, pulse_tx=tuple(np.conj(pulse35)),
                                     pulse_rx=pulse35), 2, 1, 3),
        ("afdm-64-more-paths-than-delays", tuned_afdm(64, ell_max=1, cp_len=1), 1, 2, 4),
    ]


ML_CASES = _ml_cases()


@pytest.mark.parametrize("levels", [0, 3])
@pytest.mark.parametrize("case", ML_CASES, ids=[c[0] for c in ML_CASES])
def test_stacked_ml_matches_per_candidate_reference(case, levels):
    _, spec, ell_max, f_max, P = case
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max, P=P,
                        cp_len=spec.cp_len)
    chan = sample_paths(cfg, "fractional", np.random.default_rng(spec.n + levels))
    x, y = pilot_observation(spec, chan, 21)
    y = y + 0.05 * random_frame(spec.n, 22)
    grid = (range(ell_max + 1), range(-f_max, f_max + 1))
    got = indirect_csi_ml(y, x, spec, P, grid, refine_levels=levels, refine_factor=10)
    want = reference_ml(y, x, spec, P, grid, levels, 10)
    assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in got] == [w[:2] for w in want]
    for e, (_, _, gain) in zip(got, want):
        assert abs(e.gain_hat - gain) < 1e-12


@pytest.mark.parametrize("P, levels", [(3, 3), (2, 0), (1, 2)])
@pytest.mark.parametrize("case", ML_CASES[:3], ids=[c[0] for c in ML_CASES[:3]])
def test_ml_makes_one_transform_per_stack(case, P, levels, monkeypatch):
    # one coarse stack per call, one stack per target and refinement level
    _, spec, ell_max, f_max, _ = case
    x, y = pilot_observation(spec, chan_of(spec.n, [PathParams(0.8, 1, 0.4)]), 23)
    calls = []
    rx = type(spec)._rx

    def counting_rx(self, r):
        calls.append(np.shape(r))
        return rx(self, r)

    monkeypatch.setattr(type(spec), "_rx", counting_rx)
    grid = (range(ell_max + 1), range(-f_max, f_max + 1))
    indirect_csi_ml(y, x, spec, P, grid, refine_levels=levels, refine_factor=10)
    assert len(calls) == 1 + P * levels
    assert calls[0] == ((ell_max + 1) * (2 * f_max + 1), spec.n)
    assert all(shape == (20, spec.n) for shape in calls[1:])


def test_ml_zero_pilot_fits_zero_gains():
    # every unit response is zero: each target takes the first grid cell with gain 0
    spec = tuned_afdm()
    y = random_frame(36, 24)
    ests = indirect_csi_ml(y, np.zeros(36, dtype=complex), spec, 2, GRID, refine_levels=1)
    assert [(e.delay_norm_hat, e.doppler_norm_hat, e.gain_hat) for e in ests] == [
        (0.0, -2.0, 0.0j), (0.0, -2.0, 0.0j)
    ]


def test_all_methods_agree_on_integer_scene():
    spec = tuned_afdm()
    x = random_frame(36, 13)
    s = modulate(spec, x)
    chan = chan_of(36, [PathParams(0.9, 2, 1.0)])
    r = time_domain_apply(prepend_cp(spec, s), chan)
    mf = matched_filter_map(r, s, list(GRID[0]), list(GRID[1]))
    dc = direct_csi_extract(effective_channel(spec, chan), spec, 1)[0]
    ml = indirect_csi_ml(demodulate(spec, r), x, spec, 1, GRID)[0]
    assert mf.argmax() == (2.0, 1.0)
    assert (dc.delay_norm_hat, dc.doppler_norm_hat) == (2.0, 1.0)
    assert (ml.delay_norm_hat, ml.doppler_norm_hat) == (2.0, 1.0)


# ------------------------------------------------------------- radar units


def test_radar_convert_zero_maps_to_zero():
    assert radar_convert(0.0, 0.0, 5.9e9) == (0.0, 0.0)
    assert radar_convert(0.0, 0.0, 5.9e9, "bistatic") == (0.0, 0.0)


def test_radar_doppler_for_30_mps_at_5p9_ghz():
    _, nu = radar_invert(0.0, 30.0, 5.9e9)
    expected = 2.0 * 30.0 * 5.9e9 / LIGHT_SPEED
    assert abs(nu - expected) < 1e-9 * expected
    assert abs(nu - 1180.8168970014583) < 1e-6


def test_radar_range_for_one_microsecond():
    r_mono, _ = radar_convert(1e-6, 0.0, 5.9e9, "monostatic")
    r_bi, _ = radar_convert(1e-6, 0.0, 5.9e9, "bistatic")
    assert abs(r_mono - 149.896229) < 1e-9
    assert abs(r_bi - 299.792458) < 1e-9


@pytest.mark.parametrize("geometry", ["monostatic", "bistatic"])
def test_radar_convert_invert_round_trip(geometry):
    tau, nu = 2.4e-6, 530.25
    r, v = radar_convert(tau, nu, 5.9e9, geometry)
    tau2, nu2 = radar_invert(r, v, 5.9e9, geometry)
    assert abs(tau2 - tau) < 1e-12
    assert abs(nu2 - nu) < 1e-12


def test_radar_convert_argument_validation():
    with pytest.raises(ValueError, match="carrier"):
        radar_convert(1e-6, 0.0, 0.0)
    with pytest.raises(ValueError, match="geometry"):
        radar_convert(1e-6, 0.0, 5.9e9, "multistatic")
    with pytest.raises(ValueError, match="carrier"):
        radar_invert(10.0, 0.0, -1.0)
    with pytest.raises(ValueError, match="geometry"):
        radar_invert(10.0, 0.0, 5.9e9, "x")


def test_estimate_with_physical_units():
    est = RadarTargetEstimate(2.0, 1.3, 1.0 + 0j)
    f_s, f_c, n = 1e7, 5.9e9, 64
    filled = est.with_physical_units(f_s, f_c, n)
    tau = 2.0 / f_s
    nu = 1.3 * f_s / n
    assert abs(filled.range_m - LIGHT_SPEED * tau / 2) < 1e-9
    assert abs(filled.velocity_mps - LIGHT_SPEED * nu / (2 * f_c)) < 1e-12
    # normalized fields carried over untouched
    assert filled.delay_norm_hat == 2.0 and filled.doppler_norm_hat == 1.3


# ------------------------------------------------------------------- errors


def test_rmse_exact_match_is_zero():
    truth = [(0, 0.0), (1, -2.0), (3, 1.0)]
    err = sensing_rmse(truth, truth)
    assert err == SensingErrors(0.0, 0.0, 0)


def test_rmse_single_delay_offset():
    err = sensing_rmse([(2, 0.0)], [(1, 0.0)])
    assert err.rmse_delay == 1.0
    assert err.rmse_doppler == 0.0
    assert err.misdetections == 0


def test_rmse_order_invariant():
    truth = [(0, 0.0), (1, -2.0), (3, 1.0)]
    est = [(3, 1.1), (0, 0.2), (1, -2.0)]
    a = sensing_rmse(est, truth)
    b = sensing_rmse(list(reversed(est)), truth)
    assert a == b
    assert a.misdetections == 0


def test_rmse_counts_cardinality_mismatch():
    err = sensing_rmse([(0, 0.0), (1, 0.0)], [(0, 0.0), (1, 0.0), (2, 0.0)])
    assert err.misdetections == 1
    assert err.rmse_delay == 0.0


def test_rmse_empty_estimates_is_nan():
    err = sensing_rmse([], [(0, 0.0), (1, 1.0)])
    assert np.isnan(err.rmse_delay) and np.isnan(err.rmse_doppler)
    assert err.misdetections == 2


def test_rmse_accepts_estimate_objects():
    ests = [RadarTargetEstimate(1.0, -2.0, 1.0 + 0j)]
    err = sensing_rmse(ests, [(1, -2.0)])
    assert err == SensingErrors(0.0, 0.0, 0)


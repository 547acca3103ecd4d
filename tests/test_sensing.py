"""Tests for the sensing module: ambiguity maps, CSI extraction, grid-search ML."""

import numpy as np
import pytest

import oracle
from ddwave.channel import ChannelConfig, ChannelRealization, PathParams, time_domain_apply
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
from ddwave.sensing import _integer_candidates


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


"""Tests for the sensing module: ambiguity maps, CSI extraction, grid-search ML."""

import numpy as np
import pytest

import oracle
from ddwave import link, sensing
from ddwave.channel import (
    ChannelConfig,
    ChannelRealization,
    PathParams,
    _apply_diagonals,
    delay_diagonals,
    doppler_phases,
    sample_paths,
    time_domain_apply,
)
from ddwave.link import Constellation, add_awgn, map_bits
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
from ddwave.sensing import _ChannelCsi, _integer_candidates, _ml_grid, _sense_trials
from test_link import _ADJOINT_MESSAGE, _NON_ADJOINT_PULSES


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
    csi, diags = _ChannelCsi(spec, cfg.ell_max + 1), delay_diagonals(chan, spec.wrap)
    for P in (1, 3, 5):
        got = csi(diags, P)
        want = direct_csi_extract(G, spec, P)
        assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in got] == \
            [(e.delay_norm_hat, e.doppler_norm_hat) for e in want]
        for a, b in zip(got, want):
            assert abs(a.gain_hat - b.gain_hat) < 1e-12


def test_direct_extraction_from_channel_rejects_size_mismatch():
    with pytest.raises(ValueError, match="block size"):
        _ChannelCsi(tuned_afdm(64), 4)(delay_diagonals(three_target_channel(36), tuned_afdm(36).wrap), 1)


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
                _ChannelCsi(spec, 1)(delay_diagonals(chan, spec.wrap), 1)):
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


# ------------------------------------------------------- pruned direct CSI


def exhaustive_direct_csi(spec, diags, P, monkeypatch):
    """Direct CSI from H's diagonals with the Parseval pruning off: every
    candidate gets its row and score."""
    with monkeypatch.context() as m:
        m.setattr(sensing, "_survivors", lambda lower, upper, P, threshold: np.arange(lower.size))
        return _ChannelCsi(spec, diags.shape[0])(diags, P)


def estimate_tuples(ests):
    return [(e.delay_norm_hat, e.doppler_norm_hat) for e in ests]


PRUNE_SPECS = [
    ("afdm-36", tuned_afdm(36)),
    ("afdm-64", tuned_afdm(64)),
    ("afdm-127-xi1", tuned_afdm(127, xi=1)),
    ("afdm-256", tuned_afdm(256)),
]


@pytest.mark.parametrize("P", [1, 3, 5])
@pytest.mark.parametrize("mode", ["integer", "fractional"])
@pytest.mark.parametrize("case", PRUNE_SPECS, ids=[c[0] for c in PRUNE_SPECS])
def test_pruned_direct_csi_matches_the_exhaustive_route(case, mode, P, monkeypatch):
    # 4 specs x 2 Doppler modes x 3 P x 9 seeds: 216 channels
    _, spec = case
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=3, f_max=2, P=P, cp_len=3)
    csi = _ChannelCsi(spec, cfg.ell_max + 1)
    for seed in range(9):
        chan = sample_paths(cfg, mode, link.substream(spec.n, P, seed))
        diags = delay_diagonals(chan, spec.wrap)
        got = csi(diags, P)
        want = exhaustive_direct_csi(spec, diags, P, monkeypatch)
        assert estimate_tuples(got) == estimate_tuples(want)
        for a, b in zip(got, want):
            assert abs(a.gain_hat - b.gain_hat) < 1e-12
        truth = [(p.delay_norm, p.doppler_norm) for p in chan.paths]
        assert sensing_rmse(got, truth).misdetections == sensing_rmse(want, truth).misdetections


def test_pruned_direct_csi_forms_rows_for_the_survivors_only(monkeypatch):
    spec = tuned_afdm(256)
    cfg = ChannelConfig(N=256, f_s=1e6, f_c=1e9, ell_max=3, f_max=2, P=3, cp_len=3)
    kept, formed = [], []
    survivors, afdm_rows = sensing._survivors, sensing._afdm_rows
    monkeypatch.setattr(sensing, "_survivors", lambda *args: kept.append(survivors(*args)) or kept[-1])
    monkeypatch.setattr(sensing, "_afdm_rows", lambda a, phases: formed.append(len(a)) or afdm_rows(a, phases))
    csi = _ChannelCsi(spec, cfg.ell_max + 1)
    for seed in range(5):
        chan = sample_paths(cfg, "fractional", link.substream(9, seed))
        csi(delay_diagonals(chan, spec.wrap), 3)
    assert formed == [k.size for k in kept]
    assert len(_integer_candidates(spec)[0]) == 255
    assert all(3 <= k.size <= 20 for k in kept), formed


def test_pruned_direct_csi_keeps_an_exact_tie_at_the_cut_rank(monkeypatch):
    # constructed coefficients: a clear winner, then candidates x and y with
    # identical rows (an exact tie at rank 2), and a floor of 0.05 everywhere
    # else, above the 1/(2N) threshold but below the pair's lower bound
    spec = tuned_afdm(36)
    ells, fs = _integer_candidates(spec)
    x, y, winner = 7, 3, 11  # y precedes x in (ell, f) order
    a = np.zeros((len(ells), 4), dtype=complex)
    a[:, 0] = 0.05
    a[winner] = [0.9, 0.3j, 0.0, 0.1]
    a[x] = a[y] = [0.4, 0.2j, 0.1, 0.0]
    monkeypatch.setattr(_ChannelCsi, "coefficients", lambda self, diags: a)
    diags = np.zeros((4, 36), dtype=complex)
    scores, _ = _ChannelCsi(spec, 4).support(diags, 2, 1.0 / (2 * 36))
    assert scores[x] == scores[y]
    assert np.flatnonzero(scores > -np.inf).tolist() == sorted([x, y, winner])
    got = _ChannelCsi(spec, 4)(diags, 2)
    assert estimate_tuples(got) == [(ells[winner], fs[winner]), (ells[y], fs[y])]
    want = exhaustive_direct_csi(spec, diags, 2, monkeypatch)
    assert [(e.delay_norm_hat, e.doppler_norm_hat, e.gain_hat) for e in got] == \
        [(e.delay_norm_hat, e.doppler_norm_hat, e.gain_hat) for e in want]


@pytest.mark.parametrize("ell_max", [0, 2, 3, 4, 7])
def test_survivor_rows_are_bitwise_the_rows_of_the_exhaustive_product(ell_max, monkeypatch):
    # a survivor's row, and with it its gain, must not depend on how many
    # candidates survive, one included (numpy sends a one-row product to gemv)
    spec = tuned_afdm(64, ell_max=ell_max, f_max=1, cp_len=ell_max)
    csi = _ChannelCsi(spec, ell_max + 1)
    cfg = ChannelConfig(N=64, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=1, P=3, cp_len=ell_max)
    diags = delay_diagonals(sample_paths(cfg, "fractional", link.substream(64, ell_max)), spec.wrap)
    a = csi.coefficients(diags)
    full = a @ csi.phases
    rng = np.random.default_rng(ell_max)
    for k in (1, 1, 2, 3, 5):
        keep = np.sort(rng.choice(len(a), k, replace=False))
        assert np.array_equal(sensing._afdm_rows(a[keep], csi.phases), full[keep])
    # one integer path: a single survivor at P = 1, whose gain is bitwise the exhaustive one
    chan = chan_of(64, [PathParams(0.8 - 0.3j, ell_max, -1.0)], ell_max=ell_max, f_max=1, cp_len=ell_max)
    diags = delay_diagonals(chan, spec.wrap)
    kept, survivors = [], sensing._survivors
    with monkeypatch.context() as m:
        m.setattr(sensing, "_survivors", lambda *args: kept.append(survivors(*args)) or kept[-1])
        got = csi(diags, 1)
    assert kept[0].size == 1
    want = exhaustive_direct_csi(spec, diags, 1, monkeypatch)
    assert estimate_tuples(got) == [(ell_max, -1.0)]
    assert [(e.delay_norm_hat, e.doppler_norm_hat, e.gain_hat) for e in got] == \
        [(e.delay_norm_hat, e.doppler_norm_hat, e.gain_hat) for e in want]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_maps_and_ml_reject_non_finite_bins_on_either_axis(bad):
    # NaN fails every range comparison, so it is refused as out of range, not
    # cast to a delay or left for the map's non-finite check to find
    spec = tuned_afdm()
    x, y = pilot_observation(spec, three_target_channel(), 12)
    s = modulate(spec, x)
    for delays, dops, match in (([0, bad], [0], "delay bins"), ([0], [0, bad], "Doppler bins")):
        with pytest.raises(ValueError, match=match):
            matched_filter_map(y, s, delays, dops)
        with pytest.raises(ValueError, match=match):
            ambiguity_map(s, delays, dops)
        with pytest.raises(ValueError, match=match):
            indirect_csi_ml(y, x, spec, 1, (delays, dops))


def unit_path(spec, s, ell, f):
    """s through a unit-gain path at (ell, f), by H's diagonals and their applier."""
    cfg = ChannelConfig(N=spec.n, f_s=1e7, f_c=5.9e9, ell_max=ell, f_max=round(abs(f)), P=1, cp_len=ell)
    chan = ChannelRealization(cfg, (PathParams(1.0, ell, f),))
    return _apply_diagonals(delay_diagonals(chan, spec.wrap), s)


def reference_ml(y, x, spec, P, grid, refine_levels, refine_factor):
    """The per-candidate greedy search: one unit response and one fit per (ell, f) visited."""
    s = modulate(spec, x)

    def score(ell, f, resid):
        z = demodulate(spec, unit_path(spec, s, ell, f))
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
    """(name, spec, ell_max, f_max, paths, grid delays) of the ML-versus-reference comparisons.

    The channel draws paths with delays up to ell_max; the search grid spans
    delays 0..grid delays - 1 and Dopplers -f_max..f_max.
    """
    pulse49, pulse35 = unit_pulse(4, 1), unit_pulse(3, 2)
    return [
        ("afdm-256", tuned_afdm(256), 3, 2, 3, 4),
        ("afdm-prime-37-xi1", tuned_afdm(37, f_max=1, xi=1), 3, 1, 3, 4),
        ("otfs-4x9-pulses", OtfsSpec(4, 9, cp_len=3, pulse_tx=tuple(np.conj(pulse49)),
                                     pulse_rx=pulse49), 3, 2, 3, 4),
        ("otfs-3x5-pulses", OtfsSpec(3, 5, cp_len=2, pulse_tx=tuple(np.conj(pulse35)),
                                     pulse_rx=pulse35), 2, 1, 3, 3),
        ("afdm-64-more-paths-than-delays", tuned_afdm(64, ell_max=1, cp_len=1), 1, 2, 4, 2),
        ("ofdm-64", OfdmSpec(64, cp_len=3), 3, 2, 3, 4),
        # a given c1 (2 N c1 = 0.89): the prefix window is not +-1
        ("afdm-36-given-c1", AfdmSpec(36, 0.0123, 1 / (2 * 36**2), cp_len=3), 3, 2, 3, 4),
        # grid delays 2 and 3 read their samples past the one-sample prefix
        ("afdm-40-grid-beyond-cp", tuned_afdm(40, cp_len=1), 1, 2, 3, 4),
    ]


ML_CASES = _ml_cases()


@pytest.mark.parametrize("levels", [0, 3])
@pytest.mark.parametrize("case", ML_CASES, ids=[c[0] for c in ML_CASES])
def test_stacked_ml_matches_per_candidate_reference(case, levels):
    _, spec, ell_max, f_max, P, grid_delays = case
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max, P=P,
                        cp_len=spec.cp_len)
    chan = sample_paths(cfg, "fractional", np.random.default_rng(spec.n + levels))
    x, y = pilot_observation(spec, chan, 21)
    y = y + 0.05 * random_frame(spec.n, 22)
    grid = (range(grid_delays), range(-f_max, f_max + 1))
    got = indirect_csi_ml(y, x, spec, P, grid, refine_levels=levels, refine_factor=10)
    want = reference_ml(y, x, spec, P, grid, levels, 10)
    assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in got] == [w[:2] for w in want]
    for e, (_, _, gain) in zip(got, want):
        assert abs(e.gain_hat - gain) < 1e-12


@pytest.mark.parametrize("P, levels", [(3, 3), (2, 0), (1, 2)])
@pytest.mark.parametrize("case", ML_CASES[:3], ids=[c[0] for c in ML_CASES[:3]])
def test_ml_makes_one_transform_per_stack(case, P, levels, monkeypatch):
    # one transmit transform each for the pilot and the received block, and
    # no receive transform at all: every candidate is scored in time domain
    _, spec, ell_max, f_max, _, _ = case
    x, y = pilot_observation(spec, chan_of(spec.n, [PathParams(0.8, 1, 0.4)]), 23)
    calls = {"_tx": [], "_rx": []}
    for name, calls_of in calls.items():
        transform = getattr(type(spec), name)

        def counting(self, a, transform=transform, calls_of=calls_of):
            calls_of.append(np.shape(a))
            return transform(self, a)

        monkeypatch.setattr(type(spec), name, counting)
    grid = (range(ell_max + 1), range(-f_max, f_max + 1))
    indirect_csi_ml(y, x, spec, P, grid, refine_levels=levels, refine_factor=10)
    assert calls == {"_tx": [(spec.n,), (spec.n,)], "_rx": []}


@pytest.mark.parametrize("factor", [2, 3, 10])
@pytest.mark.parametrize("N", [36, 64, 127, 256, 1024])
def test_refinement_tables_built_by_conjugation_equal_doppler_phases_bitwise(N, factor):
    # half of each table is built by conjugating the other half: this pins
    # the odd symmetry of doppler_phases (and of libm's sin) it relies on
    grid = _ml_grid(OfdmSpec(N), (range(1), range(1)), 3, factor)
    ks = [k for k in range(-factor, factor + 1) if k != 0]
    assert grid.ks == ks and len(grid.levels) == 3
    for level, (step, table) in enumerate(grid.levels, start=1):
        assert step == float(factor) ** (-level)
        want = doppler_phases(N, [k * step for k in ks])
        assert table.tobytes() == np.conj(want).tobytes()
        assert np.conj(table).tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [64, 256])  # the default and sense-afdm-n256 windows, f_max = 2
def test_coarse_doppler_table_is_the_conjugated_doppler_phases(N):
    # the matched filter's and the ML search's one Doppler table: rows e^{-j2pi f n/N}
    # from doppler_phases, an exact root-of-unity gather for these integer bins
    dops = np.arange(-2.0, 3.0)
    grid = _ml_grid(tuned_afdm(N), (range(4), dops), 0, 10)
    assert grid.coarse.tobytes() == doppler_phases(N, -dops).tobytes()
    assert grid.coarse.tobytes() == np.conj(doppler_phases(N, dops)).tobytes()
    quarter_turns = [[1, -1, 1], [1, 1j, -1], [1, 1, 1], [1, -1j, -1], [1, -1, 1]]  # n = 0, N/4, N/2
    assert np.array_equal(grid.coarse[:, [0, N // 4, N // 2]], quarter_turns)
    # e^{-j2pi f n/N} with 2 pi multiplied in before the reduction, the table before
    # exact phases, differs from it by rounding only
    assert np.max(np.abs(grid.coarse - np.exp(-2j * np.pi * np.outer(dops, np.arange(N)) / N))) <= 2e-15
    r, s = np.random.default_rng(N).standard_normal((2, N)) + 0j
    rows = s[(np.arange(N) - grid.ells[:, None]) % N]
    mf = matched_filter_map(r, s, grid.ells, dops)
    assert mf.values.tobytes() == ((r * np.conj(rows)) @ grid.coarse.T).tobytes()


@pytest.mark.parametrize("pulses", _NON_ADJOINT_PULSES)
def test_ml_rejects_otfs_pulses_without_time_domain_identity(pulses):
    # the time-domain scores equal z^H r / |z|^2 only when T_tx = T_rx^H
    spec = OtfsSpec(k=4, l=4, cp_len=3, pulse_tx=pulses[0], pulse_rx=pulses[1])
    x, y = random_frame(16, 25), random_frame(16, 26)
    with pytest.raises(ValueError, match=_ADJOINT_MESSAGE):
        indirect_csi_ml(y, x, spec, 1, (range(4), range(-1, 2)))


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


# ---------------------------------------------------------- sensing trials


def _reference_trial(spec, cfg, constellation, snr_db, doppler_mode, seed, key, levels, factor):
    """Trial `key` of a sense sweep through the public single-block functions.

    Returns (truth pairs, estimates per method), as _sense_trials does per trial.
    """
    rng = link.substream(seed, *key)
    chan = sample_paths(cfg, doppler_mode, rng)
    bits = rng.integers(0, 2, size=spec.n * constellation.bits_per_symbol)
    x = map_bits(bits, constellation)
    s = modulate(spec, x)
    r = add_awgn(time_domain_apply(prepend_cp(spec, s), chan), snr_db, rng)
    grid = (range(cfg.ell_max + 1), range(-cfg.f_max, cfg.f_max + 1))
    mf = matched_filter_map(r, s, list(grid[0]), list(grid[1]))
    s_energy = float(np.real(np.vdot(s, s)))
    mf_est = [
        RadarTargetEstimate(d, f, complex(mf.values[list(mf.delay_bins).index(d),
                                                    list(mf.doppler_bins).index(f)] / s_energy))
        for d, f in mf.top_peaks(cfg.P)
    ]
    ml_est = indirect_csi_ml(demodulate(spec, r), x, spec, cfg.P, grid,
                             refine_levels=levels, refine_factor=factor)
    return [(p.delay_norm, p.doppler_norm) for p in chan.paths], {
        "matched_filter": mf_est,
        "direct_csi": _ChannelCsi(spec, cfg.ell_max + 1)(delay_diagonals(chan, spec.wrap), cfg.P),
        "indirect_ml": ml_est,
    }


SENSE_TRIAL_SPECS = [
    ("afdm-prime-127-xi1", tuned_afdm(127, xi=1)),
    ("otfs-8x16", OtfsSpec(k=8, l=16, cp_len=3)),  # K != L
]


@pytest.mark.parametrize("case", SENSE_TRIAL_SPECS, ids=[c[0] for c in SENSE_TRIAL_SPECS])
@pytest.mark.parametrize("mode", ["integer", "fractional"])
def test_sense_trials_match_the_per_trial_reference(case, mode):
    _, spec = case
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=3, f_max=2, P=3, cp_len=3)
    qpsk = Constellation.qpsk()
    chunks = link._chunks(spec.n, 6)
    assert [len(c) for c in chunks] == [4, 2]  # the sweep ends on a partial chunk
    for snr_idx, snr_db in enumerate((10.0, np.inf)):
        got = [
            trial
            for chunk in chunks
            for trial in _sense_trials(spec, cfg, qpsk, snr_db, mode, 7,
                                       [(snr_idx, t) for t in chunk], 2, 10)
        ]
        want = [_reference_trial(spec, cfg, qpsk, snr_db, mode, 7, (snr_idx, t), 2, 10)
                for t in range(6)]
        assert len(got) == len(want)
        for (truth, ests), (truth_ref, ests_ref) in zip(got, want):
            assert truth == truth_ref
            assert ests.keys() == ests_ref.keys()
            for method, est in ests.items():
                ref = ests_ref[method]
                assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in est] == \
                    [(e.delay_norm_hat, e.doppler_norm_hat) for e in ref], method
                gains, gains_ref = np.array([e.gain_hat for e in est]), np.array([e.gain_hat for e in ref])
                if method == "indirect_ml":
                    # the trial's ML reads the stack's received samples, the public
                    # route maps the demodulated block back: equal up to rounding
                    assert np.max(np.abs(gains - gains_ref), initial=0.0) <= 1e-12
                else:
                    assert gains.tobytes() == gains_ref.tobytes(), method


@pytest.mark.parametrize("case", SENSE_TRIAL_SPECS, ids=[c[0] for c in SENSE_TRIAL_SPECS])
def test_sense_trials_transform_only_the_chunk_and_the_probes(case, monkeypatch):
    # the chunk is modulated once and never demodulated: the matched filter
    # and the ML search read the stack's samples, and the only receive
    # transforms are direct CSI's unit probes, at most one stack per trial
    _, spec = case
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=3, f_max=2, P=3, cp_len=3)
    sensing._trial_tables.cache_clear()
    sensing._trial_tables(spec, cfg.ell_max, cfg.f_max, 2, 10)  # built once per sweep, not counted
    calls = {"_tx": [], "_rx": []}
    for name, calls_of in calls.items():
        transform = getattr(type(spec), name)

        def counting(self, a, transform=transform, calls_of=calls_of):
            calls_of.append(np.shape(a))
            return transform(self, a)

        monkeypatch.setattr(type(spec), name, counting)
    trials = _sense_trials(spec, cfg, Constellation.qpsk(), 10.0, "fractional", 7, [(0, t) for t in range(4)], 2, 10)
    assert len(trials) == 4
    assert calls["_tx"] == [(4, spec.n)]
    assert 1 <= len(calls["_rx"]) <= 4
    assert all(n == spec.n and 1 <= k <= cfg.P for k, n in calls["_rx"])


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



@pytest.mark.parametrize("f_c", [0.0, -5.9e9, np.nan, np.inf])
@pytest.mark.parametrize("fn", [radar_convert, radar_invert])
def test_radar_functions_share_the_argument_checks(fn, f_c):
    with pytest.raises(ValueError, match=f"carrier frequency must be positive, got {f_c}"):
        fn(1.0, 0.0, f_c)
    with pytest.raises(ValueError, match="unknown geometry 'multistatic'"):
        fn(1.0, 0.0, 5.9e9, "multistatic")

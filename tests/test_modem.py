"""Waveform chains: transforms, CP rules, effective channels, support prediction."""

import numpy as np
import pytest

import oracle
from ddwave.channel import ChannelConfig, ChannelRealization, PathParams, delay_diagonals, sample_paths, time_domain_apply
from ddwave.modem import (
    AfdmSpec,
    OfdmSpec,
    OtfsSpec,
    _c1_merges_targets,
    _delay_stride,
    afdm_orthogonality_ok,
    afdm_shift,
    afdm_tune,
    demodulate,
    effective_channel,
    measure_papr,
    modulate,
    otfs_orthogonality_ok,
    predict_support,
    prepend_cp,
)

FIG3_TARGETS = [(0, 0), (1, -2), (3, 1)]


def tuned_afdm(n=36, ell_max=3, f_max=2, xi=0, cp_len=None):
    c1, c2 = afdm_tune(ell_max, f_max, xi, n)
    return AfdmSpec(n, c1, c2, xi, ell_max if cp_len is None else cp_len)


def chan_for(spec, paths, ell_max=3, f_max=2):
    cfg = ChannelConfig(
        N=spec.n, f_s=1e7, f_c=5.9e9, ell_max=ell_max, f_max=f_max,
        P=len(paths), cp_len=spec.cp_len,
    )
    return ChannelRealization(
        config=cfg,
        paths=tuple(PathParams(gain=h, delay_norm=ell, doppler_norm=f) for h, ell, f in paths),
    )


def random_block(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


# ------------------------------------------------------------------ transforms

def test_afdm_with_zero_rates_is_ofdm():
    x = random_block(16, 0)
    assert np.allclose(
        modulate(AfdmSpec(16, 0.0, 0.0), x), modulate(OfdmSpec(16), x), atol=1e-12
    )
    r = random_block(16, 1)
    assert np.allclose(
        demodulate(AfdmSpec(16, 0.0, 0.0), r), demodulate(OfdmSpec(16), r), atol=1e-12
    )


def test_otfs_single_row_grid_is_pure_idft():
    x = random_block(8, 2)
    assert np.allclose(
        modulate(OtfsSpec(k=1, l=8), x), oracle.dft(8).conj().T @ x, atol=1e-12
    )


def test_modulate_preserves_energy():
    for spec in (OfdmSpec(16), OtfsSpec(k=4, l=4), tuned_afdm(16, 2, 1)):
        x = random_block(16, 3)
        assert abs(np.linalg.norm(modulate(spec, x)) - np.linalg.norm(x)) <= 1e-10


def test_round_trips():
    for spec in (OfdmSpec(36), OtfsSpec(k=6, l=6), tuned_afdm()):
        x = random_block(36, 4)
        assert np.max(np.abs(demodulate(spec, modulate(spec, x)) - x)) <= 1e-10


def shaped_otfs(k, l, cp_len=0):
    """OTFS with non-rectangular pulses, plus its dense operators built here."""
    p_tx = tuple(np.exp(0.7j * np.arange(k)) * (1.0 + 0.1 * np.arange(k)))
    p_rx = tuple(np.conj(p_tx))
    spec = OtfsSpec(k=k, l=l, cp_len=cp_len, pulse_tx=p_tx, pulse_rx=p_rx)
    Fl = oracle.dft(l)
    return spec, (np.kron(Fl.conj().T, np.diag(p_tx)), np.kron(Fl, np.diag(p_rx)))


def test_transforms_match_fft_reference():
    for spec, (tx, rx) in (
        (OfdmSpec(24), oracle.ofdm_ops(24)),
        (OtfsSpec(k=4, l=6), oracle.otfs_ops(4, 6)),
        (OtfsSpec(k=3, l=5), oracle.otfs_ops(3, 5)),
        (OtfsSpec(k=4, l=9), oracle.otfs_ops(4, 9)),
        shaped_otfs(4, 9),
        (AfdmSpec(24, 0.11, 0.003), oracle.afdm_ops(24, 0.11, 0.003)),
        (tuned_afdm(37, 3, 1, 1), oracle.afdm_ops(37, *afdm_tune(3, 1, 1, 37))),
    ):
        x = random_block(spec.n, 5)
        assert np.max(np.abs(modulate(spec, x) - tx @ x)) <= 1e-10
        assert np.max(np.abs(demodulate(spec, x) - rx @ x)) <= 1e-10


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        modulate(OfdmSpec(16), np.ones(15))
    with pytest.raises(ValueError):
        demodulate(OtfsSpec(k=4, l=4), np.ones(8))


@pytest.mark.parametrize("spec", [OfdmSpec(36, 3), shaped_otfs(4, 9, cp_len=3)[0], tuned_afdm()],
                         ids=["ofdm", "otfs", "afdm"])
def test_stage_functions_map_stacks_row_by_row(spec):
    x = np.stack([random_block(36, 40 + b) for b in range(3)])
    for stage in (modulate, demodulate, prepend_cp):
        assert np.array_equal(stage(spec, x), np.stack([stage(spec, row) for row in x]))
        with pytest.raises(ValueError, match="length 36"):
            stage(spec, np.ones((36, 35)))
        with pytest.raises(ValueError, match="length 36"):
            stage(spec, np.ones(()))


def test_otfs_pulse_validation():
    with pytest.raises(ValueError, match="pulse_tx"):
        OtfsSpec(k=4, l=4, pulse_tx=(1.0, 1.0))
    spec = OtfsSpec(k=2, l=2, pulse_tx=(1.0, -1.0), pulse_rx=(1.0, -1.0))
    x = random_block(4, 6)
    assert np.max(np.abs(demodulate(spec, modulate(spec, x)) - x)) <= 1e-10


def test_demodulate_keeps_noise_white():
    # unitary receive operator: per-sample variance unchanged, 10^4 draws, 5%
    rng = np.random.default_rng(7)
    spec = tuned_afdm(16, 2, 1)
    acc = 0.0
    draws = 10_000
    for _ in range(draws):
        w = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) * np.sqrt(0.5)
        acc += np.mean(np.abs(demodulate(spec, w)) ** 2)
    assert abs(acc / draws - 1.0) < 0.05


# -------------------------------------------------------------------- CP rules

def test_ofdm_prefix_is_verbatim_tail():
    s = random_block(16, 8)
    out = prepend_cp(OfdmSpec(16, cp_len=4), s)
    assert np.array_equal(out[:4], s[-4:])
    assert np.array_equal(out[4:], s)


def test_afdm_prefix_plain_copy_when_stride_integer():
    # even N with 2*N*c1 integer: chirp-periodic rule collapses to a cyclic copy
    spec = AfdmSpec(16, c1=3.0 / 32.0, c2=0.0, cp_len=3)
    s = random_block(16, 9)
    out = prepend_cp(spec, s)
    assert np.allclose(out[:3], s[-3:], atol=1e-12)


def test_afdm_prefix_phase_literal():
    # N=8, c1=1/32, n'=-1: factor e^{j2pi(64-16)/32} = e^{j3pi} = -1
    spec = AfdmSpec(8, c1=1.0 / 32.0, c2=0.0, cp_len=1)
    s = random_block(8, 10)
    out = prepend_cp(spec, s)
    assert np.allclose(out[0], -s[7], atol=1e-12)


def test_zero_cp_returns_block():
    s = random_block(8, 11)
    assert np.array_equal(prepend_cp(OfdmSpec(8), s), s)


def test_prefix_longer_than_block_rejected():
    with pytest.raises(ValueError, match="prefix longer than the block"):
        prepend_cp(OfdmSpec(8, cp_len=9), random_block(8, 13))


@pytest.mark.parametrize("make, cp_len", [
    (lambda: OfdmSpec(8, -1), -1),
    (lambda: OtfsSpec(2, 4, cp_len=-2), -2),
    (lambda: AfdmSpec(8, 1.0 / 32.0, 0.0, cp_len=-1), -1),
], ids=["ofdm", "otfs", "afdm"])
def test_negative_prefix_rejected_at_construction(make, cp_len):
    # prepend_cp would otherwise return the unprefixed block
    with pytest.raises(ValueError, match=f"prefix length must be >= 0, got {cp_len}"):
        make()


# ------------------------------------------------------------ effective channel

def test_effective_channel_identity_path_all_waveforms():
    for spec in (OfdmSpec(36, 3), OtfsSpec(k=6, l=6, cp_len=3), tuned_afdm()):
        chan = chan_for(spec, [(1.0, 0, 0.0)])
        assert np.max(np.abs(effective_channel(spec, chan) - np.eye(36))) <= 1e-9


def test_effective_channel_dimension_mismatch():
    spec = OfdmSpec(16, 3)
    chan = chan_for(OfdmSpec(36, 3), [(1.0, 0, 0.0)])
    with pytest.raises(ValueError):
        effective_channel(spec, chan)


@pytest.mark.parametrize("seed", range(25))
def test_end_to_end_consistency(seed):
    # the chained property: demod(apply(chan, cp(mod(x)))) == G x
    rng = np.random.default_rng(300 + seed)
    for spec in (OfdmSpec(16, 3), OtfsSpec(k=4, l=4, cp_len=3), tuned_afdm(16, 3, 1)):
        cfg = ChannelConfig(N=16, f_s=1e7, f_c=5.9e9, ell_max=3, f_max=1, P=3, cp_len=3)
        chan = sample_paths(cfg, "fractional", rng)
        x = random_block(16, 400 + seed)
        y = demodulate(spec, time_domain_apply(prepend_cp(spec, modulate(spec, x)), chan))
        assert np.max(np.abs(y - effective_channel(spec, chan) @ x)) <= 1e-9


def test_effective_channel_matches_independent_reference():
    paths = [(0.8 - 0.1j, 0, 0.37), (-0.4j, 2, -1.2), (0.25, 3, 1.0)]
    # P = 6 > ell_max + 1: paths share delays and so share diagonals
    crowded = paths + [(0.3, 0, -0.8), (0.2j, 2, 1.45), (-0.15 + 0.1j, 3, -1.0)]
    c1_37 = afdm_tune(3, 1, 1, 37)[0]
    for (spec, ops, cycles, case_paths) in (
        (OfdmSpec(16, 3), oracle.ofdm_ops(16), oracle.zero_cycles, paths),
        (OtfsSpec(k=4, l=4, cp_len=3), oracle.otfs_ops(4, 4), oracle.zero_cycles, paths),
        (OtfsSpec(k=3, l=5, cp_len=3), oracle.otfs_ops(3, 5), oracle.zero_cycles, paths),
        (OtfsSpec(k=4, l=9, cp_len=3), oracle.otfs_ops(4, 9), oracle.zero_cycles, paths),
        (*shaped_otfs(4, 9, cp_len=3), oracle.zero_cycles, paths),
        (
            tuned_afdm(16, 3, 1),
            oracle.afdm_ops(16, *afdm_tune(3, 1, 0, 16)),
            oracle.chirp_cp_cycles(afdm_tune(3, 1, 0, 16)[0], 16),
            paths,
        ),
        (
            tuned_afdm(37, 3, 1, 1),
            oracle.afdm_ops(37, *afdm_tune(3, 1, 1, 37)),
            oracle.chirp_cp_cycles(c1_37, 37),
            paths,
        ),
        (OfdmSpec(16, 3), oracle.ofdm_ops(16), oracle.zero_cycles, crowded),
        (
            tuned_afdm(37, 3, 1, 1),
            oracle.afdm_ops(37, *afdm_tune(3, 1, 1, 37)),
            oracle.chirp_cp_cycles(c1_37, 37),
            crowded,
        ),
    ):
        chan = chan_for(spec, case_paths, ell_max=3, f_max=1)
        G = effective_channel(spec, chan)
        G_ref = oracle.effective_matrix(*ops, case_paths, cycles)
        assert np.max(np.abs(G - G_ref)) <= 1e-10


def test_unitary_similarity_preserves_frobenius():
    for spec in (OfdmSpec(36, 3), OtfsSpec(k=6, l=6, cp_len=3), tuned_afdm()):
        chan = chan_for(spec, [(0.5, 1, 0.8), (0.3j, 3, -1.6)])
        G = effective_channel(spec, chan)
        # H has no nonzero off its cyclic diagonals, so they carry all of ||H||_F
        H_diagonals = delay_diagonals(chan, spec.wrap)
        assert abs(np.linalg.norm(G) - np.linalg.norm(H_diagonals)) <= 1e-9


# ----------------------------------------------------------- support structure

def test_support_exactness_single_paths():
    # on-support magnitudes |h|, off-support below 1e-9, integer Doppler
    for spec in (OtfsSpec(k=6, l=6, cp_len=3), tuned_afdm()):
        for ell, f in FIG3_TARGETS:
            h = 0.7 - 0.2j
            chan = chan_for(spec, [(h, ell, float(f))])
            G = effective_channel(spec, chan)
            sup = predict_support(spec, ell, f)
            mask = np.zeros((36, 36), dtype=bool)
            for r, c in sup:
                mask[r, c] = True
            assert np.max(np.abs(G[~mask])) <= 1e-9
            assert np.max(np.abs(np.abs(G[mask]) - abs(h))) <= 1e-9


def test_predicted_support_matches_dense_reference():
    N = 36
    c1, c2 = afdm_tune(3, 2, 0, N)
    spec = tuned_afdm()
    tx_rx = oracle.afdm_ops(N, c1, c2)
    cyc = oracle.chirp_cp_cycles(c1, N)
    for ell, f in FIG3_TARGETS:
        G_ref = oracle.effective_matrix(*tx_rx, [(1.0, ell, float(f))], cyc)
        assert oracle.support_set(G_ref, 1.0 / (2 * N)) == predict_support(spec, ell, f)
    otfs = OtfsSpec(k=6, l=6, cp_len=3)
    tx_rx = oracle.otfs_ops(6, 6)
    for ell, f in FIG3_TARGETS:
        G_ref = oracle.effective_matrix(*tx_rx, [(1.0, ell, float(f))], oracle.zero_cycles)
        assert oracle.support_set(G_ref, 1.0 / (2 * N)) == predict_support(otfs, ell, f)


def test_afdm_three_target_shifts():
    # stride 2*N*c1 = 5 per delay tap, -1 per Doppler bin
    spec = tuned_afdm()
    assert spec.delay_stride == 5
    shifts = [afdm_shift(spec, ell, f) for ell, f in FIG3_TARGETS]
    assert shifts == [0, 7, 14]


def test_afdm_zero_target_is_main_diagonal():
    spec = tuned_afdm()
    assert predict_support(spec, 0, 0) == frozenset((i, i) for i in range(36))


def test_otfs_zero_target_is_blockwise_main_diagonal():
    spec = OtfsSpec(k=6, l=6)
    assert predict_support(spec, 0, 0) == frozenset((i, i) for i in range(36))


def test_predict_support_rejects_ofdm_and_bad_bounds():
    with pytest.raises(ValueError):
        predict_support(OfdmSpec(16), 0, 0)
    spec = tuned_afdm()
    with pytest.raises(ValueError):
        predict_support(spec, 36, 0)
    with pytest.raises(ValueError):
        predict_support(spec, 0, 19)
    for s in (spec, OtfsSpec(k=6, l=6)):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="delay"):
                predict_support(s, bad, 0)
            with pytest.raises(ValueError, match="Doppler"):
                predict_support(s, 0, bad)


def test_afdm_fractional_leakage_monotone():
    spec = tuned_afdm()
    shift = afdm_shift(spec, 1, -2)
    mags = []
    for frac in np.linspace(0.0, 0.5, 11):
        chan = chan_for(spec, [(1.0, 1, -2.0 + frac)])
        G = effective_channel(spec, chan)
        mags.append(abs(G[0, shift]))
    assert abs(mags[0] - 1.0) <= 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(mags, mags[1:]))
    assert mags[-1] < 0.7


def test_ofdm_fractional_doppler_spreads_into_band():
    spec = OfdmSpec(36, 3)
    chan = chan_for(spec, [(1.0, 0, 0.4)])
    G = effective_channel(spec, chan)
    off_diag = G[~np.eye(36, dtype=bool)]
    assert np.max(np.abs(off_diag)) > 1.0 / 72.0


# ----------------------------------------------------- tuning and orthogonality

def test_afdm_tune_literal_values():
    assert afdm_tune(3, 2, 0, 36)[0] == pytest.approx(5.0 / 72.0, abs=1e-15)
    assert afdm_tune(3, 0, 0, 16)[0] == pytest.approx(1.0 / 32.0, abs=1e-15)


def test_afdm_tune_c2_below_inverse_n():
    for n in (16, 36, 64):
        c1, c2 = afdm_tune(1, 1, 0, n)
        assert c2 == 1.0 / (2 * n * n) < 1.0 / n


def test_afdm_tune_infeasible_raises():
    with pytest.raises(ValueError, match="infeasible"):
        afdm_tune(3, 2, 0, 18)


def test_afdm_orthogonality_boundary():
    assert afdm_orthogonality_ok(3, 2, 0, 36)
    assert afdm_orthogonality_ok(3, 2, 0, 20)  # exact fit: 5*3+5 = 20
    assert not afdm_orthogonality_ok(3, 2, 0, 19)
    assert not afdm_orthogonality_ok(3, 2, 0, 18)


def test_afdm_wraparound_collision_just_past_boundary():
    # N=19 admits a genuine collision: with stride 5, (3,-2) and (0,2) both
    # land on diagonal 17, so the predicate must reject it
    spec = AfdmSpec(19, c1=5.0 / 38.0, c2=1.0 / (2 * 19**2), xi=0, cp_len=3)
    assert afdm_shift(spec, 3, -2) == afdm_shift(spec, 0, 2) == 17
    overlap = predict_support(spec, 3, -2)
    assert overlap == predict_support(spec, 0, 2)
    # the two paths pile onto a single diagonal and interfere; nothing of
    # either lands outside it, so they cannot be told apart
    G = effective_channel(spec, chan_for(spec, [(1.0, 3, -2.0), (1.0, 0, 2.0)]))
    mask = np.zeros((19, 19), dtype=bool)
    for r, c in overlap:
        mask[r, c] = True
    assert np.max(np.abs(G[~mask])) <= 1e-9
    assert np.max(np.abs(G[mask])) > 1.5  # constructive rows prove both arrived


def test_otfs_orthogonality_boundary():
    assert otfs_orthogonality_ok(3, 2, 6, 6)
    assert not otfs_orthogonality_ok(6, 2, 6, 6)
    assert not otfs_orthogonality_ok(3, 4, 6, 6)


def test_otfs_collisions_just_past_boundary():
    spec = OtfsSpec(k=4, l=5)
    # delay wraps mod K: ell = 0 and ell = 4 are indistinguishable
    assert predict_support(spec, 0, 0) == predict_support(spec, 4, 0)
    # Doppler wraps mod L: f = 3 and f = -2 are indistinguishable
    assert predict_support(spec, 1, -2) == predict_support(spec, 1, 3)


def test_predicates_reject_negative_arguments():
    with pytest.raises(ValueError):
        afdm_orthogonality_ok(-1, 0, 0, 8)
    with pytest.raises(ValueError):
        otfs_orthogonality_ok(0, -2, 4, 4)


def test_delay_stride_requires_integer():
    with pytest.raises(ValueError, match="integral"):
        AfdmSpec(16, c1=0.031, c2=0.0).delay_stride


def merges_by_the_set_rule(c1, ell_max, f_max, N):
    """Two window pairs on one diagonal: a set of (ell * 2*N*c1 - f) mod N over Python ints."""
    try:
        stride = _delay_stride(N, c1)
    except ValueError:
        return False
    window = [(ell, f) for ell in range(ell_max + 1) for f in range(-f_max, f_max + 1)]
    return len({(ell * stride - f) % N for ell, f in window}) < len(window)


@pytest.mark.parametrize("N", [16, 19, 36, 37, 64, 97])
def test_c1_merges_targets_agrees_with_the_set_rule(N):
    # tuned strides 2(f_max + xi) + 1, given ones (negative, huge, past N) and
    # rates whose stride is not an integer, which merge nothing
    given = [1 / (2 * N), -3 / (2 * N), 5 / (2 * N), (N + 2) / (2 * N), 0.031, -0.25, 1e300, -1e300, 0.0]
    seen = set()
    for ell_max in range(4):
        for f_max in range(3):
            tuned = [afdm_tune(0, f_max, xi, N)[0] for xi in range(2) if 2 * (f_max + xi) + 1 <= N]
            for c1 in tuned + given:
                want = merges_by_the_set_rule(c1, ell_max, f_max, N)
                assert _c1_merges_targets(c1, ell_max, f_max, N) == want, (c1, ell_max, f_max)
                seen.add(want)
    assert seen == {True, False}


# ------------------------------------------------------------------------ PAPR

def test_papr_constant_modulus_is_zero_db():
    s = np.exp(2j * np.pi * np.arange(32) * 0.21)
    assert measure_papr(s) == pytest.approx(0.0, abs=1e-12)


def test_papr_impulse():
    s = np.zeros(64, dtype=complex)
    s[5] = 2.0
    assert measure_papr(s) == pytest.approx(10.0 * np.log10(64.0), abs=1e-12)


def test_papr_rejects_degenerate_input():
    with pytest.raises(ValueError):
        measure_papr(np.array([]))
    with pytest.raises(ValueError):
        measure_papr(np.zeros(8))


def test_papr_ofdm_qpsk_distribution_sane():
    # report-only KPI: seeded empirical p99 for N=64 QPSK should sit in the
    # usual high-single-digit dB range
    rng = np.random.default_rng(17)
    spec = OfdmSpec(64)
    vals = []
    for _ in range(2000):
        bits = rng.integers(0, 2, size=128)
        x = ((1 - 2 * bits[0::2]) + 1j * (1 - 2 * bits[1::2])) / np.sqrt(2.0)
        vals.append(measure_papr(modulate(spec, x)))
    p99 = float(np.percentile(vals, 99))
    assert 6.0 < p99 < 13.0

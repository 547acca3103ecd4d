"""Constellations, noise, equalizers, Monte Carlo BER."""

import numpy as np
import pytest

import oracle
from ddwave import link
from ddwave.channel import ChannelConfig, ChannelRealization, PathParams, time_domain_apply
from ddwave.link import (
    Constellation,
    SingularChannelError,
    add_awgn,
    demap_symbols,
    equalize_lmmse,
    equalize_zf,
    map_bits,
    run_ber_point,
)
from ddwave.modem import (
    AfdmSpec,
    OfdmSpec,
    OtfsSpec,
    afdm_tune,
    demodulate,
    effective_channel,
    modulate,
    prepend_cp,
)


QPSK = Constellation.qpsk()
QAM16 = Constellation.qam16()


def test_constellations_unit_energy():
    for c in (QPSK, QAM16):
        energy = np.mean(np.abs(np.asarray(c.points)) ** 2)
        assert abs(energy - 1.0) <= 1e-12


def test_qpsk_points_and_bit_count():
    assert QPSK.bits_per_symbol == 2
    expected = {(s1 + 1j * s2) / np.sqrt(2.0) for s1 in (1, -1) for s2 in (1, -1)}
    assert set(np.round(np.asarray(QPSK.points), 12)) == {complex(round(p.real, 12), round(p.imag, 12)) for p in expected}


def test_qam16_scaling():
    levels = sorted({round(p.real * np.sqrt(10.0), 9) for p in QAM16.points})
    assert levels == [-3.0, -1.0, 1.0, 3.0]
    assert QAM16.bits_per_symbol == 4


def test_gray_adjacency():
    # nearest-neighbour points differ in exactly one bit
    for c in (QPSK, QAM16):
        pts = np.asarray(c.points)
        d = np.abs(pts[:, None] - pts[None, :])
        d_min = np.min(d[d > 1e-12])
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i != j and abs(d[i, j] - d_min) < 1e-9:
                    assert bin(i ^ j).count("1") == 1


def test_by_name_lookup():
    assert Constellation.by_name("QPSK").name == "QPSK"
    assert Constellation.by_name("16qam").name == "16QAM"
    with pytest.raises(ValueError):
        Constellation.by_name("8psk")


def test_map_demap_round_trip():
    rng = np.random.default_rng(0)
    for c in (QPSK, QAM16):
        bits = rng.integers(0, 2, size=40 * c.bits_per_symbol)
        assert np.array_equal(demap_symbols(map_bits(bits, c), c), bits)


def test_map_bits_length_mismatch():
    with pytest.raises(ValueError):
        map_bits(np.ones(7, dtype=int), QPSK)


def test_awgn_infinite_snr_is_identity():
    r = np.arange(8, dtype=complex)
    out = add_awgn(r, np.inf, np.random.default_rng(0))
    assert np.array_equal(out, r)
    assert out is not r


def test_awgn_variance_calibrated():
    rng = np.random.default_rng(1)
    snr_db = 7.0
    sigma2 = 10.0 ** (-snr_db / 10.0)
    w = add_awgn(np.zeros(1_000_000, dtype=complex), snr_db, rng)
    assert abs(np.mean(np.abs(w) ** 2) / sigma2 - 1.0) < 0.01


def test_awgn_deterministic_under_seed():
    r = np.ones(16, dtype=complex)
    a = add_awgn(r, 5.0, np.random.default_rng(42))
    b = add_awgn(r, 5.0, np.random.default_rng(42))
    assert np.array_equal(a, b)


def _realization(n, paths, ell_max=3, f_max=2, cp_len=None):
    """Realization of (gain, ell, f) paths on an n-sample block."""
    cfg = ChannelConfig(
        N=n, f_s=1e7, f_c=5.9e9, ell_max=ell_max, f_max=f_max, P=len(paths),
        cp_len=ell_max if cp_len is None else cp_len,
    )
    return ChannelRealization(cfg, tuple(PathParams(h, ell, f) for h, ell, f in paths))


def _dominant_paths(seed, P, ell_max, f_max=2):
    """A unit direct path plus P - 1 weaker ones: cond(H) <= 3, so G^{-1} is a sharp reference.

    The second path sits at ell_max, so H H^H fills its whole band.
    """
    rng = np.random.default_rng(seed)
    delays = [0, ell_max] + [int(d) for d in rng.integers(0, ell_max + 1, size=P - 2)]
    gains = [1.0 + 0.0j] + [
        0.5 / (P - 1) * np.exp(2j * np.pi * rng.uniform()) for _ in range(P - 1)
    ]
    dopplers = rng.uniform(-f_max - 0.5, f_max + 0.5, size=P)
    return list(zip(gains, delays, dopplers.tolist()))


def _block(n, seed):
    return np.random.default_rng(seed).standard_normal((n, 2)) @ np.array([1.0, 1.0j])


def _pipeline(spec, chan, x):
    """Noiseless CP-stripped received block of symbol block x."""
    return time_domain_apply(prepend_cp(spec, modulate(spec, x)), chan)


def _three_waveforms(n=12, k=4, l=3, ell_max=3, f_max=1, cp_len=3):
    c1, c2 = afdm_tune(ell_max, f_max, 0, n)
    return (OfdmSpec(n, cp_len), OtfsSpec(k=k, l=l, cp_len=cp_len), AfdmSpec(n, c1, c2, 0, cp_len))


def test_zf_recovers_noiseless():
    for seed, spec in enumerate(_three_waveforms()):
        chan = _realization(spec.n, _dominant_paths(seed, 3, 3, 1), f_max=1)
        x = _block(spec.n, 10 + seed)
        assert np.max(np.abs(equalize_zf(spec, chan, _pipeline(spec, chan, x)) - x)) <= 1e-8


def test_zf_rejects_singular_channel():
    # two paths on the same (ell, f) with opposite gains cancel: H = 0
    chan = _realization(4, [(0.5 + 0.5j, 1, 1.0), (-0.5 - 0.5j, 1, 1.0)], ell_max=1, f_max=1)
    with pytest.raises(SingularChannelError):
        equalize_zf(OfdmSpec(4, 1), chan, np.ones(4, dtype=complex))


def test_lmmse_limits_to_zf():
    for seed, spec in enumerate(_three_waveforms(n=8, k=2, l=4, ell_max=2, f_max=0, cp_len=2)):
        chan = _realization(spec.n, _dominant_paths(20 + seed, 3, 2, 0), ell_max=2, f_max=0)
        r = _block(spec.n, 30 + seed)
        assert np.max(np.abs(equalize_lmmse(spec, chan, r, 1e-14) - equalize_zf(spec, chan, r))) <= 1e-6


def test_identity_channel_equalizers_pass_through():
    chan = _realization(6, [(1.0 + 0.0j, 0, 0.0)], ell_max=0, f_max=0)
    r = np.arange(6, dtype=complex) + 1j
    for spec in _three_waveforms(n=6, k=3, l=2, ell_max=0, f_max=0, cp_len=0):
        y = demodulate(spec, r)
        assert np.allclose(equalize_zf(spec, chan, r), y, atol=1e-12)
        assert np.allclose(equalize_lmmse(spec, chan, r, 0.0), y, atol=1e-12)


def _reference_cases():
    """(spec, dense tx, dense rx, oracle phase rule, realization) for the dense comparison."""
    cases = []

    def add(spec, ops, phase, P=3, ell_max=3, f_max=2, seed=0, cp_len=None):
        paths = _dominant_paths(seed, P, ell_max, f_max)
        chan = _realization(spec.n, paths, ell_max, f_max, spec.cp_len if cp_len is None else cp_len)
        cases.append((spec, *ops, phase, chan))

    def afdm(n, ell_max, f_max, xi=0, cp_len=None):
        c1, c2 = afdm_tune(ell_max, f_max, xi, n)
        cp = ell_max if cp_len is None else cp_len
        return AfdmSpec(n, c1, c2, xi, cp), oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n)

    zero = oracle.zero_cycles
    add(OfdmSpec(16, 3), oracle.ofdm_ops(16), zero, seed=1)
    add(OtfsSpec(k=4, l=4, cp_len=3), oracle.otfs_ops(4, 4), zero, seed=2)
    spec, ops, phase = afdm(16, 3, 1)
    add(spec, ops, phase, f_max=1, seed=3)
    spec, ops, phase = afdm(37, 3, 1, xi=1)  # prime N, guard xi = 1
    add(spec, ops, phase, f_max=1, seed=4)
    add(OtfsSpec(k=3, l=5, cp_len=3), oracle.otfs_ops(3, 5), zero, seed=5)
    add(OfdmSpec(16, 3), oracle.ofdm_ops(16), zero, P=6, seed=6)  # repeated delays
    # 2 ell_max >= N: the offsets of H H^H collide mod N and must add up
    add(OfdmSpec(5, 3), oracle.ofdm_ops(5), zero, f_max=0, seed=7)
    spec, ops, phase = afdm(5, 3, 0)
    add(spec, ops, phase, f_max=0, seed=8)
    add(OfdmSpec(16, 5), oracle.ofdm_ops(16), zero, seed=9)  # cp_len > ell_max
    spec, ops, phase = afdm(16, 3, 1, cp_len=5)
    add(spec, ops, phase, f_max=1, seed=10)
    # N above one block: block elimination, padding of the last block
    add(OfdmSpec(97, 3), oracle.ofdm_ops(97), zero, P=5, seed=11)
    add(OfdmSpec(128, 12), oracle.ofdm_ops(128), zero, ell_max=12, P=5, seed=14)  # wide band
    add(OtfsSpec(k=8, l=16, cp_len=3), oracle.otfs_ops(8, 16), zero, seed=12)
    spec, ops, phase = afdm(128, 7, 2)
    add(spec, ops, phase, ell_max=7, P=8, seed=13)
    return cases


def test_equalizers_match_dense_reference():
    for idx, (spec, tx, rx, phase, chan) in enumerate(_reference_cases()):
        paths = [(p.gain, p.delay_norm, p.doppler_norm) for p in chan.paths]
        G = oracle.effective_matrix(tx, rx, paths, phase)
        r = _block(spec.n, 100 + idx)
        y = rx @ r
        zf = np.linalg.solve(G, y)
        assert np.max(np.abs(equalize_zf(spec, chan, r) - zf)) <= 1e-10, spec
        for noise_var in (0.0, 0.3):
            A = G @ G.conj().T + noise_var * np.eye(spec.n)
            lmmse = G.conj().T @ np.linalg.solve(A, y)
            assert np.max(np.abs(equalize_lmmse(spec, chan, r, noise_var) - lmmse)) <= 1e-10, (spec, noise_var)


def test_zf_solves_channel_that_dense_elimination_got_wrong():
    # N = 256 OFDM, integer Doppler: cond(G) = 5.3, yet LU with partial pivoting
    # on the dense G grows by ~1e16 and leaves a residual of order 1
    chan = _realization(
        256,
        [(0.0347 - 0.5092j, 0, -2.0), (-0.0018 + 0.3247j, 3, 1.0), (0.4786 - 0.0264j, 1, -1.0)],
    )
    spec = OfdmSpec(256, 3)
    G = effective_channel(spec, chan)
    r = _block(256, 0)
    y = demodulate(spec, r)
    assert np.max(np.abs(G @ equalize_zf(spec, chan, r) - y)) <= 1e-10


def test_equalizers_reject_size_mismatch():
    chan = _realization(8, [(1.0 + 0.0j, 0, 0.0)], ell_max=0, f_max=0)
    with pytest.raises(ValueError):
        equalize_zf(OfdmSpec(16), chan, np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        equalize_lmmse(OfdmSpec(8), chan, np.ones(7, dtype=complex), 0.1)


def test_ber_rejects_otfs_pulses_without_time_domain_identity(monkeypatch):
    def no_frame(*args):
        raise AssertionError("a frame ran before the pulses were checked")

    monkeypatch.setattr(link, "_run_frame", no_frame)
    ramp = tuple(np.exp(0.7j * np.arange(4)) * (1.0 + 0.1 * np.arange(4)))
    unit = tuple(np.exp(0.7j * np.arange(4)))
    for p_tx, p_rx in (
        (unit, unit),               # pulse_tx != conj(pulse_rx)
        (ramp, tuple(np.conj(ramp))),  # |pulse_rx| != 1
        (None, (1.0, -1.0, 1.0, 1.0)),
        ((2.0,) * 4, None),
    ):
        spec = OtfsSpec(k=4, l=4, cp_len=3, pulse_tx=p_tx, pulse_rx=p_rx)
        with pytest.raises(ValueError):
            run_ber_point(spec, _dispersive_config(), QPSK, 10.0, frames=2)
    monkeypatch.undo()
    spec = OtfsSpec(k=4, l=4, cp_len=3, pulse_tx=tuple(np.conj(unit)), pulse_rx=unit)
    res = run_ber_point(spec, _dispersive_config(), QPSK, np.inf, frames=2)
    assert res.frames == 2


def _flat_config(n=16):
    # single path locked to (0, 0): the sampled channel is a complex scalar
    return ChannelConfig(N=n, f_s=1e7, f_c=5.9e9, ell_max=0, f_max=0, P=1, cp_len=0)


def _dispersive_config(n=16):
    return ChannelConfig(N=n, f_s=1e7, f_c=5.9e9, ell_max=3, f_max=1, P=3, cp_len=3)


def test_ber_zero_on_flat_channel_noiseless():
    for detector in ("zf", "lmmse"):
        res = run_ber_point(
            OfdmSpec(16), _flat_config(), QPSK, np.inf, frames=20, detector=detector, seed=0
        )
        assert res.ber == 0.0
        assert res.bit_errors == 0


def test_ber_approaches_coin_flip_at_very_low_snr():
    res = run_ber_point(
        OfdmSpec(16, 3), _dispersive_config(), QPSK, -20.0, frames=120, seed=1
    )
    assert abs(res.ber - 0.5) < 0.05


def test_ber_fields_consistent():
    res = run_ber_point(OtfsSpec(k=4, l=4, cp_len=3), _dispersive_config(), QPSK, 10.0, frames=10, seed=2)
    assert res.frames == 10
    assert res.ber == res.bit_errors / (10 * 16 * 2)
    assert 0.0 <= res.ber <= 0.55
    assert np.isfinite(res.papr_db_p99) and res.papr_db_p99 > 0.0


def test_ber_deterministic_and_thread_independent():
    kw = dict(snr_db=8.0, frames=30, detector="lmmse", seed=7, doppler_mode="fractional")
    spec, cfg = OfdmSpec(16, 3), _dispersive_config()
    a = run_ber_point(spec, cfg, QPSK, threads=1, **kw)
    b = run_ber_point(spec, cfg, QPSK, threads=3, **kw)
    c = run_ber_point(spec, cfg, QPSK, threads=1, **kw)
    assert a == b == c


def test_ber_monotone_over_sweep():
    bers = [
        run_ber_point(OfdmSpec(16, 3), _dispersive_config(), QPSK, snr, frames=300, seed=3).ber
        for snr in (0.0, 10.0, 300.0)
    ]
    assert bers[0] >= bers[1] >= bers[2]
    assert bers[2] == 0.0


def test_ber_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_ber_point(OfdmSpec(16), _flat_config(), QPSK, 10.0, frames=0)
    with pytest.raises(ValueError):
        run_ber_point(OfdmSpec(16), _flat_config(), QPSK, 10.0, frames=1, detector="mrc")


def test_ber_rejects_nonpositive_threads():
    with pytest.raises(ValueError, match="threads"):
        run_ber_point(OfdmSpec(16), _flat_config(), QPSK, 10.0, frames=1, threads=0)

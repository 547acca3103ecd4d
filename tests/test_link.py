"""Constellations, noise, equalizers, Monte Carlo BER."""

import json
import re

import numpy as np
import pytest

import oracle
from ddwave import link
from ddwave.channel import (
    ChannelConfig,
    ChannelRealization,
    PathParams,
    _path_arrays,
    delay_diagonals,
    sample_paths,
    time_domain_apply,
)
from ddwave.cli import main
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
    measure_papr,
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


@pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
def test_awgn_rejects_nan_and_negative_infinity(snr_db):
    # only +inf is the noiseless point; -inf dB is infinite noise, not none
    with pytest.raises(ValueError, match="snr_db"):
        add_awgn(np.ones(4, dtype=complex), snr_db, np.random.default_rng(0))


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
    # the N = 97 and N = 128 cases run the cyclic reduction (N = 97 as 13
    # blocks, the last one padded), and the wide bands (m = 24 and 14) pad
    # the last block
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


def test_lmmse_of_a_frame_does_not_depend_on_its_stack():
    # N = 100 runs the cyclic reduction whether the frame is alone or one of six
    assert link._band_layout(100, 3).nb > 1
    cfg = _dispersive_config(100)
    rng = np.random.default_rng(100)
    chans = [sample_paths(cfg, "fractional", rng) for _ in range(6)]
    spec = OfdmSpec(100, 3)
    d = np.stack([delay_diagonals(chan, spec.wrap) for chan in chans])
    r = np.stack([_block(100, seed) for seed in range(6)])
    alone = link._lmmse_solve(d[:1], r[:1], 0.1)
    stacked = link._lmmse_solve(d, r, 0.1)
    assert np.array_equal(alone[0], stacked[0])


def _block_tridiagonal_system(nb, m, B, pad, seed):
    """B random HPD block-tridiagonal systems (A, b) of nb blocks of m rows.

    A = M M^H + I for a block lower-bidiagonal M. The last `pad` rows are an
    identity with a zero right-hand side, decoupled from the rest, as the
    band layout pads the last block.
    """
    rng = np.random.default_rng(seed)
    size = nb * m
    A = np.empty((B, size, size), dtype=complex)
    for b in range(B):
        M = np.zeros((size, size), dtype=complex)
        for i in range(nb):
            for j in (i - 1, i):
                if j >= 0:
                    M[i * m : (i + 1) * m, j * m : (j + 1) * m] = rng.standard_normal((m, m, 2)) @ [1, 1j]
        A[b] = M @ M.conj().T + np.eye(size)
    rhs = rng.standard_normal((B, size, 2)) @ np.array([1, 1j])
    if pad:
        A[:, -pad:, :] = A[:, :, -pad:] = 0.0
        A[:, -pad:, -pad:] = np.eye(pad)
        rhs[:, -pad:] = 0.0
    return A, rhs


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("nb", range(1, 18))
def test_cyclic_reduction_matches_the_dense_solve(nb, B):
    # nb = 1..17 covers odd and even block counts, 2^k and 2^k + 1
    m = 5
    A, rhs = _block_tridiagonal_system(nb, m, B, pad=2, seed=nb)
    width = m + 1 if nb == 1 else 3 * m + 1  # [D | b | L | U], as _band_layout lays out
    F = np.zeros((B, nb, m, width), dtype=complex)
    for i in range(nb):
        rows = slice(i * m, (i + 1) * m)
        F[:, i, :, :m] = A[:, rows, rows]
        F[:, i, :, m] = rhs[:, rows]
        if i > 0:
            F[:, i, :, m + 1 : 2 * m + 1] = A[:, rows, (i - 1) * m : i * m]
        if i < nb - 1:
            F[:, i, :, 2 * m + 1 :] = A[:, rows, (i + 1) * m : (i + 2) * m]
    link._cyclic_reduction(F, m)
    x = F[..., m].reshape(B, -1)
    expected = np.linalg.solve(A, rhs[..., None])[..., 0]
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(x[:, -2:])) <= 1e-12 * np.max(np.abs(expected))  # the padding


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


_UNIT_PULSE = tuple(np.exp(0.7j * np.arange(4)))
_RAMP_PULSE = tuple(np.exp(0.7j * np.arange(4)) * (1.0 + 0.1 * np.arange(4)))
_NON_ADJOINT_PULSES = [
    (_UNIT_PULSE, _UNIT_PULSE),  # pulse_tx != conj(pulse_rx)
    (_RAMP_PULSE, tuple(np.conj(_RAMP_PULSE))),  # |pulse_rx| != 1
    (None, (1.0, -1.0, 1.0, 1.0)),
    ((2.0,) * 4, None),
]
_ADJOINT_MESSAGE = r"needs pulse_tx = conj\(pulse_rx\) with \|pulse_rx\| = 1"


def test_ber_rejects_otfs_pulses_without_time_domain_identity(monkeypatch):
    def no_frame(*args):
        raise AssertionError("a frame ran before the pulses were checked")

    monkeypatch.setattr(link, "_run_frames", no_frame)
    for p_tx, p_rx in _NON_ADJOINT_PULSES:
        spec = OtfsSpec(k=4, l=4, cp_len=3, pulse_tx=p_tx, pulse_rx=p_rx)
        with pytest.raises(ValueError, match=_ADJOINT_MESSAGE):
            run_ber_point(spec, _dispersive_config(), QPSK, 10.0, frames=2)
    monkeypatch.undo()
    spec = OtfsSpec(k=4, l=4, cp_len=3, pulse_tx=tuple(np.conj(_UNIT_PULSE)), pulse_rx=_UNIT_PULSE)
    res = run_ber_point(spec, _dispersive_config(), QPSK, np.inf, frames=2)
    assert res.frames == 2


@pytest.mark.parametrize("pulses", _NON_ADJOINT_PULSES)
def test_equalizers_reject_otfs_pulses_without_time_domain_identity(pulses):
    # with such pulses demodulate(H^{-1} r) is not G^{-1} y: at K = L = 4 and
    # pulse_tx = pulse_rx = e^{0.7j k}, a noiseless block came back 1.97 off
    spec = OtfsSpec(k=4, l=4, cp_len=3, pulse_tx=pulses[0], pulse_rx=pulses[1])
    chan = _realization(16, _dominant_paths(0, 3, 3, 1), f_max=1)
    r = _block(16, 0)
    with pytest.raises(ValueError, match=_ADJOINT_MESSAGE):
        equalize_zf(spec, chan, r)
    with pytest.raises(ValueError, match=_ADJOINT_MESSAGE):
        equalize_lmmse(spec, chan, r, 0.1)


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
    with pytest.raises(ValueError, match="block size"):
        run_ber_point(OfdmSpec(32), _flat_config(), QPSK, 10.0, frames=1)
    with pytest.raises(ValueError, match="exceeds prefix length"):  # a prefix shorter than ell_max
        run_ber_point(OfdmSpec(16, 1), _dispersive_config(), QPSK, 10.0, frames=20)


@pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
def test_ber_rejects_nan_and_negative_infinity_before_the_first_frame(monkeypatch, snr_db):
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was drawn")

    monkeypatch.setattr(link, "_draw_paths", no_frames)
    with pytest.raises(ValueError, match="snr_db"):
        run_ber_point(OfdmSpec(16), _flat_config(), QPSK, snr_db, frames=4)


@pytest.mark.parametrize("detector", ["zf", "lmmse"])
@pytest.mark.parametrize("c1,n", [(0.0123, 36), (0.0123, 37), (0.35, 36), (0.35, 37)])
def test_given_c1_noiseless_is_error_free(c1, n, detector):
    # 2*N^2*c1 not an integer: the equalizers must invert the channel the
    # transmitter's prefix went through
    cfg = ChannelConfig(N=n, f_s=1e7, f_c=5.9e9, ell_max=3, f_max=2, P=3, cp_len=3)
    spec = AfdmSpec(n, c1, 0.011, cp_len=3)
    res = run_ber_point(spec, cfg, QPSK, np.inf, frames=20, detector=detector, seed=5)
    assert res.bit_errors == 0


def test_ber_rejects_nonpositive_threads():
    with pytest.raises(ValueError, match="threads"):
        run_ber_point(OfdmSpec(16), _flat_config(), QPSK, 10.0, frames=1, threads=0)


def _reference_frame(spec, chan_config, constellation, snr_db, detector, doppler_mode, seed, i):
    """Frame i of a BER point through the public single-block functions: (bit errors, papr_db)."""
    rng = link.substream(seed, i)
    chan = sample_paths(chan_config, doppler_mode, rng)
    bits = rng.integers(0, 2, size=spec.n * constellation.bits_per_symbol)
    s_cp = prepend_cp(spec, modulate(spec, map_bits(bits, constellation)))
    r = add_awgn(time_domain_apply(s_cp, chan), snr_db, rng)
    if detector == "zf":
        x_hat = equalize_zf(spec, chan, r)
    else:
        noise_var = 0.0 if np.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)
        x_hat = equalize_lmmse(spec, chan, r, noise_var)
    return int(np.sum(demap_symbols(x_hat, constellation) != bits)), measure_papr(s_cp)


@pytest.mark.parametrize("detector", ["zf", "lmmse"])
def test_batched_frames_match_the_per_frame_reference(monkeypatch, detector):
    run_frames, chunks = link._run_frames, []

    def recording(*args):
        chunks.append(run_frames(*args))
        return chunks[-1]

    monkeypatch.setattr(link, "_run_frames", recording)
    c1, c2 = afdm_tune(3, 1, 1, 37)
    cases = [  # (spec, channel config, frames, chunk sizes): each ends on a partial chunk
        (OfdmSpec(64, 3), _dispersive_config(64), 37, [16, 16, 5]),
        (OtfsSpec(k=4, l=9, cp_len=3), _dispersive_config(36), 53, [50, 3]),  # K != L
        (AfdmSpec(37, c1, c2, 1, 3), _dispersive_config(37), 50, [47, 3]),  # odd N, xi = 1
        # 16 blocks of 8 rows, batched 4 and 2 frames at a time, 1 in the reference
        (OfdmSpec(128, 3), _dispersive_config(128), 10, [4, 4, 2]),
    ]
    assert link._band_layout(128, 3).nb == 16
    for spec, cfg, frames, sizes in cases:
        for snr_db in (6.0, np.inf):  # inf draws no noise
            chunks.clear()
            args = (spec, cfg, QAM16, snr_db, detector, "fractional", 11)
            errors, paprs = zip(*(_reference_frame(*args, i) for i in range(frames)))
            res = run_ber_point(spec, cfg, QAM16, snr_db, frames, detector=detector, seed=11)
            assert [len(e) for e, _ in chunks] == sizes
            assert np.concatenate([e for e, _ in chunks]).tolist() == list(errors), (spec, snr_db)
            assert np.concatenate([p for _, p in chunks]).tolist() == list(paprs), (spec, snr_db)
            assert res.bit_errors == sum(errors)
            assert res.papr_db_p99 == float(np.percentile(paprs, 99))
            if snr_db == 6.0:
                assert res.bit_errors > 0


def test_ber_zf_equalizes_each_frame_through_equalize_zf(monkeypatch):
    """ZF frames call the public equalize_zf once each, in frame order, so its refusals surface there."""
    cfg, seen = _dispersive_config(64), []
    equalize = link.equalize_zf

    def recording(spec, chan, r):
        seen.append(chan.paths)
        return equalize(spec, chan, r)

    monkeypatch.setattr(link, "equalize_zf", recording)
    run_ber_point(OfdmSpec(64, 3), cfg, QPSK, 10.0, frames=37, detector="zf", seed=4)
    assert seen == [sample_paths(cfg, "fractional", link.substream(4, i)).paths for i in range(37)]


def _near_singular(eps, n=64):
    """One ell = 0 diagonal 1 - (1 - eps) e^{j2pi n/N}: cond(H) = (2 - eps) / eps."""
    return _realization(n, [(1.0 + 0.0j, 0, 0.0), (-(1.0 - eps) + 0.0j, 0, 1.0)], ell_max=0, f_max=1)


def _ber_with_channel(tmp_path, monkeypatch, chan):
    """Exit code of `ddwave ber` (ZF, N = 64) when every frame draws the channel chan."""
    monkeypatch.setattr(link, "_draw_paths", lambda config, mode, rng: _path_arrays(chan.paths))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "waveform": "ofdm", "n": 64, "ell_max": 0, "f_max": 1, "paths": 2, "cp_len": 0,
        "detector": "zf", "snr_sweep": [10.0], "frames": 20,
    }))
    return main(["ber", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_zf_accepts_cond_2e11_through_the_svd_fallback(tmp_path, monkeypatch):
    chan, spec = _near_singular(1e-11), OfdmSpec(64)
    d = delay_diagonals(chan, spec.wrap)
    assert 1.9e11 < np.linalg.cond(np.diag(d[0])) < 2.1e11
    assert not link._certified(d)
    x = _block(64, 3)
    assert np.max(np.abs(equalize_zf(spec, chan, _pipeline(spec, chan, x)) - x)) <= 1e-3
    assert _ber_with_channel(tmp_path, monkeypatch, chan) == 0


def test_zf_refuses_cond_2e13_and_ber_exits_3(tmp_path, monkeypatch, capsys):
    chan = _near_singular(1e-13)
    message = r"channel condition number (1\.99\d|2\.00\d)e\+13 exceeds 1e12"
    with pytest.raises(SingularChannelError, match=message):
        equalize_zf(OfdmSpec(64), chan, np.ones(64, dtype=complex))
    assert _ber_with_channel(tmp_path, monkeypatch, chan) == 3
    assert re.search("numerical failure: " + message, capsys.readouterr().err)


def test_zf_guard_decides_as_the_svd_test():
    """Certificates plus fallback against np.linalg.cond(H) > 1e12, frame by frame.

    2,000 sampled N = 64 fractional-Doppler channels (OFDM's and AFDM's
    prefix rules) and near-singular ones across the 1e12 boundary. Every H
    certified by either stage, Weyl's bound or the Cholesky certificate,
    must have cond(H) <= sqrt(2 / tau_N), and Weyl's bound must clear some
    of the sampled channels.
    """
    cfg = _dispersive_config(64)
    c1, c2 = afdm_tune(3, 2, 0, 64)
    rng = np.random.default_rng(2024)
    cases = [
        (spec, sample_paths(cfg, "fractional", rng))
        for spec in (OfdmSpec(64, 3), AfdmSpec(64, c1, c2, 0, 3))
        for _ in range(1000)
    ]
    cases += [(OfdmSpec(64), _near_singular(eps)) for eps in np.logspace(-14, -9, 26)]
    bound = np.sqrt(2.0 / ((4 * 64 + 64) * 2.0**-53))
    n = np.arange(64)
    r = np.ones(64, dtype=complex)
    fallbacks = refusals = weyl = 0
    for spec, chan in cases:
        d = delay_diagonals(chan, spec.wrap)
        H = np.zeros((64, 64), dtype=complex)
        for ell, diag in enumerate(d):
            H[n, (n - ell) % 64] = diag
        cond = np.linalg.cond(H)
        try:
            equalize_zf(spec, chan, r)
            refused = False
        except SingularChannelError:
            refused = True
        assert refused == (cond > 1e12), cond
        if link._certified(d):
            assert cond <= bound
        else:
            fallbacks += 1
        if link._weyl_certified(d):
            assert cond <= bound
            weyl += 1
        refusals += refused
    assert fallbacks > 26 and refusals > 0
    assert 0 < weyl < len(cases)

"""Constellations, noise, equalizers, Monte Carlo BER."""

import dataclasses
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from ddwave import link, sensing
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
from ddwave.config import ScenarioConfig
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


def _argmin_bits(x, c):
    """The nearest-point rule as a distance table: argmin over |x - p|, ties to the lowest label."""
    labels = np.argmin(np.abs(x[:, None] - np.asarray(c.points)), axis=1)
    return ((labels[:, None] >> np.arange(c.bits_per_symbol - 1, -1, -1)) & 1).reshape(-1)


def test_demap_cuts_equal_the_distance_table_on_noisy_symbols():
    rng = np.random.default_rng(21)
    for c in (QPSK, QAM16):
        pts = np.asarray(c.points)
        for _ in range(16):  # 2^20 symbols per constellation, in chunks of 2^16
            x = pts[rng.integers(0, len(pts), 1 << 16)] + 0.3 * (rng.standard_normal((1 << 16, 2)) @ [1.0, 1.0j])
            assert np.array_equal(demap_symbols(x, c), _argmin_bits(x, c))


def test_demap_sends_a_symbol_exactly_midway_to_the_lower_label():
    """On a grid whose midpoints are floats (16-QAM's Gray labels on the
    unscaled levels -3, -1, 1, 3), a symbol exactly on a cut goes to the level
    with the lower label: -3 at -2, -1 at 0 and, at 2, where the labels
    descend (11 | 10), 3. On both axes at once it goes to the lowest of four."""
    gray = Constellation("unscaled 16QAM", tuple(
        complex(link._PAM4_GRAY[label >> 2], link._PAM4_GRAY[label & 3]) for label in range(16)
    ), 4)
    won = {-2.0: 0b00, 0.0: 0b01, 2.0: 0b10}
    level_label = {v: k for k, v in link._PAM4_GRAY.items()}
    for re_cut, im in [(x, y) for x in won for y in (*won, -3.0, 1.0)]:
        q = won.get(im, level_label.get(im))
        for sym, label in ((re_cut + 1j * im, won[re_cut] << 2 | q), (im + 1j * re_cut, q << 2 | won[re_cut])):
            expected = (label >> np.arange(3, -1, -1)) & 1
            assert np.array_equal(demap_symbols(np.array([sym]), gray), expected), sym
            assert np.array_equal(_argmin_bits(np.array([sym]), gray), expected), sym


def test_demap_cuts_decide_the_nearest_level_exactly():
    """Around each cut, the floats go to the level that is nearer in exact
    arithmetic, and an exact midpoint (0.0) to the lower label. The 16-QAM
    cuts at +-2 / sqrt(10) are not floats, so no float there is a tie. On a
    2-PAM of 0.7 (label 0) and 0.1, the float midpoint 0.39999999999999997
    is nearer to 0.1, so it goes there although 0.7 has the lower label."""
    pam2 = Constellation("2-PAM", (0.7 + 0.0j, 0.1 + 0.0j), 1)
    assert demap_symbols(np.array([(0.1 + 0.7) / 2]), pam2).tolist() == [1]
    for c in (QPSK, QAM16, pam2):
        pts = np.asarray(c.points)
        levels, im = np.unique(pts.real), pts.imag.min()
        for lo, hi in zip(levels[:-1], levels[1:]):
            x = (lo + hi) / 2.0
            for _ in range(3):
                x = np.nextafter(x, -np.inf)
            for _ in range(6):
                gap = 2 * Fraction(float(x)) - Fraction(float(lo)) - Fraction(float(hi))
                tied = [p for p in range(len(pts)) if pts[p].real in (lo, hi) and pts[p].imag == im]
                if gap != 0:
                    tied = [p for p in tied if pts[p].real == (hi if gap > 0 else lo)]
                expected = (min(tied) >> np.arange(c.bits_per_symbol - 1, -1, -1)) & 1
                assert np.array_equal(demap_symbols(np.array([x + 1j * im]), c), expected), x
                x = np.nextafter(x, np.inf)


def test_cut_levels_equal_searchsorted():
    """_level counts the cuts below each value as np.searchsorted does: on
    the cuts, the floats next to them, infinities and NaN."""
    rng = np.random.default_rng(3)
    for c in (QPSK, QAM16):
        for cuts in link._demap_tables(c)[:2]:
            near = np.concatenate([cuts, np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf)])
            v = np.concatenate([near, rng.standard_normal(1000), [np.inf, -np.inf, np.nan, 0.0, -0.0]])
            assert np.array_equal(link._level(cuts, v), np.searchsorted(cuts, v))
            grid = v[:30].reshape(3, 2, 5)  # any shape, strided or not
            assert np.array_equal(link._level(cuts, grid[:, ::2]), np.searchsorted(cuts, grid[:, ::2]))


def test_bit_errors_from_labels_equal_the_bit_array_comparison():
    """A BER sweep counts popcount(decided label XOR sent label); that equals
    comparing demap_symbols' bits with the sent bits, symbol by symbol, for
    every (sent, decided) label pair: at each point, on noisy estimates and on
    estimates exactly on a cut or the next float above it, on both axes."""
    rng = np.random.default_rng(8)
    for c in (QPSK, QAM16):
        bps, pts = c.bits_per_symbol, np.asarray(c.points)
        i_cuts, q_cuts, _ = link._demap_tables(c)
        re = np.concatenate([i_cuts, np.nextafter(i_cuts, np.inf), np.unique(pts.real)])
        im = np.concatenate([q_cuts, np.nextafter(q_cuts, np.inf), np.unique(pts.imag)])
        on_cuts = (re[:, None] + 1j * im).ravel()
        noisy = pts[rng.integers(0, len(pts), 4000)] + 0.4 * (rng.standard_normal((4000, 2)) @ [1.0, 1.0j])
        x = np.concatenate([pts, on_cuts, noisy])
        decided = demap_symbols(x, c).reshape(-1, bps)
        assert {tuple(row) for row in decided} == {tuple(row) for row in demap_symbols(pts, c).reshape(-1, bps)}
        for sent in range(len(pts)):
            sent_bits = (sent >> np.arange(bps - 1, -1, -1)) & 1
            got = link._bit_errors(x[:, None], np.full((len(x), 1), sent), c)
            assert got.tolist() == np.count_nonzero(decided != sent_bits, axis=1).tolist()


def test_demap_of_a_constellation_that_is_no_grid_is_the_distance_table():
    # a diamond: levels -1, 0, 1 on each axis, 4 of the 9 grid points
    diamond = Constellation("diamond", (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j), 2)
    x = np.array([0.0, 0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.9 - 0.2j])
    assert demap_symbols(x, diamond).tolist() == [0, 0, 0, 0, 0, 1, 1, 0, 0, 0]
    noisy = np.asarray(diamond.points)[np.arange(4000) % 4] + np.random.default_rng(5).standard_normal((4000, 2)) @ [0.5, 0.5j]
    assert np.array_equal(demap_symbols(noisy, diamond), _argmin_bits(noisy, diamond))


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
    alone = link._lmmse_sweep(d[:1], r[:1, None, None], [0.1])
    stacked = link._lmmse_sweep(d, r[:, None, None], [0.1])
    assert np.array_equal(alone[0], stacked[0])


@pytest.mark.parametrize("N", [36, 96, 97, 128, 1024])
def test_multi_column_reduction_matches_per_block_solves(N):
    # one Gram serves both noise variances and R right-hand sides per frame;
    # nb = 1 up to N = 96, cyclic reduction from N = 97 on
    assert (link._band_layout(N, 3).nb > 1) == (N > 96)
    d = np.stack([
        delay_diagonals(_realization(N, _dominant_paths(seed, 3, 3, 1), f_max=1), OfdmSpec(N, 3).wrap)
        for seed in range(2)
    ])
    for R in (1, 2, 3):
        r = np.stack([np.stack([_block(N, 10 * b + k) for k in range(R)]) for b in range(2)])
        noise_vars = (0.1, 0.0)
        swept = link._lmmse_sweep(d, np.stack([r, r], axis=1), noise_vars)
        for s, noise_var in enumerate(noise_vars):
            got = swept[:, s]
            for k in range(R):
                alone = link._lmmse_sweep(d, r[:, None, k : k + 1], [noise_var])[:, 0, 0]
                assert np.max(np.abs(got[:, k] - alone)) <= 1e-12 * np.max(np.abs(alone)), (R, k)
                if R == 1:
                    assert np.array_equal(got[:, k], alone)


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
    """One one-waveform sweep of (6 dB, inf), at the default stack budget and
    at 2^12 entries: each draw chunk records (1, B, S) bit errors, and
    column s matches the per-frame reference at SNR point s."""
    run_frames, chunks = link._run_frames, []

    def recording(*args):
        chunks.append(run_frames(*args))
        return chunks[-1]

    monkeypatch.setattr(link, "_run_frames", recording)
    c1, c2 = afdm_tune(3, 1, 1, 37)
    # (spec, channel config, frames, chunk sizes at 2^12 entries); a chunk of
    # either detector holds 4 rows of H's diagonals per frame, and each sweep
    # ends on a partial chunk
    cases = [
        (OfdmSpec(64, 3), _dispersive_config(64), 37, [16, 16, 5]),
        (OtfsSpec(k=4, l=9, cp_len=3), _dispersive_config(36), 53, [28, 25]),  # K != L
        (AfdmSpec(37, c1, c2, 1, 3), _dispersive_config(37), 50, [27, 23]),  # odd N, xi = 1
        # 16 blocks of 8 rows: at the default budget LMMSE reduces all 10
        # frames in one sub-stack, at 2^12 one at a time, and 1 in the reference
        (OfdmSpec(128, 3), _dispersive_config(128), 10, [8, 2]),
    ]
    assert link._band_layout(128, 3).nb == 16
    snrs = [6.0, np.inf]  # inf draws no noise
    for spec, cfg, frames, small in cases:
        references = []
        for snr_db in snrs:
            args = (spec, cfg, QAM16, snr_db, detector, "fractional", 11)
            references.append(list(zip(*(_reference_frame(*args, i) for i in range(frames)))))
        for budget, sizes in ((link._CHUNK_ENTRIES, [frames]), (1 << 12, small)):
            chunks.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(link, "_CHUNK_ENTRIES", budget)
                [results] = link._ber_sweep([spec], cfg, QAM16, snrs, frames, detector, seed=11)
            assert [e.shape for e, _ in chunks] == [(1, size, 2) for size in sizes]
            for s, (snr_db, res, (errors, paprs)) in enumerate(zip(snrs, results, references)):
                assert np.concatenate([e[0, :, s] for e, _ in chunks]).tolist() == list(errors), (spec, snr_db)
                assert np.concatenate([p[0] for _, p in chunks]).tolist() == list(paprs), (spec, snr_db)
                assert res.snr_db == snr_db
                assert res.bit_errors == sum(errors)
                assert res.papr_db_p99 == float(np.percentile(paprs, 99))
                if snr_db == 6.0:
                    assert res.bit_errors > 0


@pytest.mark.parametrize("detector", ["zf", "lmmse"])
def test_ber_sweep_rows_equal_single_point_runs(detector):
    """Frame i is the same frame at every point, so a sweep's row s is run_ber_point at snrs[s]."""
    c1, c2 = afdm_tune(3, 1, 1, 37)
    cases = [  # each frame count ends on a partial chunk
        (OfdmSpec(64, 3), _dispersive_config(64), 37, "fractional"),
        (OtfsSpec(k=4, l=9, cp_len=3), _dispersive_config(36), 53, "integer"),  # K != L
        (AfdmSpec(37, c1, c2, 1, 3), _dispersive_config(37), 50, "fractional"),  # odd N, xi = 1
    ]
    snrs = [0.0, np.inf, 8.0, 20.0]  # finite points around the noiseless one
    for spec, cfg, frames, mode in cases:
        [sweep] = link._ber_sweep([spec], cfg, QAM16, snrs, frames, detector, 5, mode)
        points = [
            run_ber_point(spec, cfg, QAM16, snr, frames, detector=detector, seed=5, doppler_mode=mode)
            for snr in snrs
        ]
        for row, point in zip(sweep, points):
            for field in dataclasses.fields(link.LinkResult):
                assert getattr(row, field.name) == getattr(point, field.name), (spec, row, field.name)
        assert sweep[0].bit_errors > sweep[3].bit_errors


@pytest.mark.parametrize("mode", ["integer", "fractional"])
@pytest.mark.parametrize("detector", ["zf", "lmmse"])
def test_ber_rows_equal_single_waveform_runs(detector, mode):
    """Frame i is the same frame for every waveform, and LMMSE solves a prefix
    group as one system, so each waveform's rows of a multi-waveform sweep
    are its one-waveform sweep's rows."""
    c1, c2 = afdm_tune(3, 1, 1, 37)
    t1, t2 = afdm_tune(3, 1, 0, 36)
    given = AfdmSpec(36, 0.0123, 0.011, cp_len=3)  # 2 N c1 = 0.89: wrap is not +-1
    assert not np.allclose(np.abs(given.wrap.real), 1.0)
    cases = [  # (specs, channel config, frames, prefix groups): each ends on a partial chunk
        ([OfdmSpec(64, 3), OtfsSpec(k=8, l=8, cp_len=3)], _dispersive_config(64), 37, [[0, 1]]),
        ([OfdmSpec(36, 3), OtfsSpec(k=4, l=9, cp_len=3), AfdmSpec(36, t1, t2, 0, 3)],  # K != L
         _dispersive_config(36), 53, [[0, 1, 2]]),  # tuned wrap at even N: exactly ones
        ([OfdmSpec(37, 3), AfdmSpec(37, c1, c2, 1, 3)], _dispersive_config(37), 50, [[0], [1]]),
        ([given, OfdmSpec(36, 3), OtfsSpec(k=6, l=6, cp_len=3)], _dispersive_config(36), 53,
         [[0], [1, 2]]),
    ]
    assert np.array_equal(AfdmSpec(37, c1, c2, 1, 3).wrap, -np.ones(37))  # xi = 1: prefix factors -1
    snrs = [0.0, np.inf, 8.0, 20.0]
    for specs, cfg, frames, groups in cases:
        assert link._prefix_groups(specs) == groups
        sweeps = link._ber_sweep(specs, cfg, QAM16, snrs, frames, detector, 5, mode)
        assert len(sweeps) == len(specs)
        for spec, rows in zip(specs, sweeps):
            [alone] = link._ber_sweep([spec], cfg, QAM16, snrs, frames, detector, 5, mode)
            for row, single in zip(rows, alone, strict=True):
                for field in dataclasses.fields(link.LinkResult):
                    assert getattr(row, field.name) == getattr(single, field.name), (spec, field.name)
            assert rows[0].bit_errors > rows[3].bit_errors


@pytest.mark.parametrize("scenario,groups", [
    ({"n": 1024, "k": 32, "l": 32}, [[0, 1, 2]]),  # the ber-dense-n1024 shape: one LMMSE system
    ({"n": 225, "k": 15, "l": 15}, [[0, 1], [2]]),  # odd N: tuned AFDM prefix factors are -1
    ({"n": 1024, "k": 32, "l": 32, "c1": 0.0123}, [[0, 1], [2]]),  # a given c1: not +-1
])
def test_prefix_groups_of_scenario_waveforms(scenario, groups):
    specs = [spec for _, spec in ScenarioConfig.from_dict(scenario).waveform_specs()]
    assert link._prefix_groups(specs) == groups


def _zf_rows(specs, cfg, snrs, frames, seed, mode="fractional"):
    """A ZF sweep's estimates, one (frame i, waveform w, received (S, N),
    estimate (S, N)) per row of each draw chunk, read from the chunk's draw
    and its demodulate calls, one per chunk and waveform (prefix group, then
    waveform, order); and the chunk sizes, which cover the frames in order."""
    draws, estimates = [], []
    draw, demod = link._draw_frames, link.demodulate

    def drawing(*args):
        draws.append((args[-1], draw(*args)))
        return draws[-1][1]

    def demodulating(spec, z):
        estimates.append(demod(spec, z))
        return estimates[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(link, "_draw_frames", drawing)
        mp.setattr(link, "demodulate", demodulating)
        link._ber_sweep(specs, cfg, QAM16, snrs, frames, "zf", seed, mode)
    order = [w for group in link._prefix_groups(specs) for w in group]
    W = len(specs)
    assert len(estimates) == len(draws) * W
    assert [key for keys, _ in draws for key in keys] == [(i,) for i in range(frames)]
    rows = [
        (i, w, drawn[3][w][1][b], x[b])
        for c, (keys, drawn) in enumerate(draws)
        for w, x in zip(order, estimates[c * W : (c + 1) * W])
        for b, (i,) in enumerate(keys)
    ]
    return rows, [len(keys) for keys, _ in draws]


def _assert_rows_equal_equalize_zf(rows, specs, cfg, seed, mode="fractional"):
    """Each row's estimate is equalize_zf's on that frame's realization, bit for bit."""
    for i, w, r, x in rows:
        chan = sample_paths(cfg, mode, link.substream(seed, i))
        assert equalize_zf(specs[w], chan, r).tobytes() == x.tobytes(), (i, w)


def test_ber_zf_refuses_the_first_frame_in_frame_then_group_order(monkeypatch):
    """A ZF chunk refuses before any solve, naming the first refused H in
    frame and then prefix group order, with the message equalize_zf gives
    for that frame alone. At odd N = 37, I - (1 - eps) Pi is near singular
    with OFDM's prefix vector (ones) and well conditioned with the xi = 1
    AFDM's (-1), and I + (1 - eps) Pi the other way round: frame 2 is
    refused in the AFDM group only, frame 5 in the OFDM group only. So a
    sweep names frame 2, whether its stacks hold one frame each, all seven
    or the default budget's share."""
    c1, c2 = afdm_tune(1, 0, 1, 37)
    specs = [OfdmSpec(37, 1), AfdmSpec(37, c1, c2, 1, 1)]
    assert link._prefix_groups(specs) == [[0], [1]]
    good, afdm_refused, ofdm_refused = (
        _realization(37, [(1.0 + 0.0j, 0, 0.0), (g, 1, 0.0)], ell_max=1, f_max=0)
        for g in (0.3 + 0.0j, (1 - 1e-14) + 0.0j, -(1 - 1e-13) + 0.0j)
    )
    chans = [good, good, afdm_refused, good, good, ofdm_refused, good]
    r = np.ones(37, dtype=complex)
    with pytest.raises(SingularChannelError) as ofdm_alone:
        equalize_zf(specs[0], ofdm_refused, r)
    assert re.search(r"(1\.99\d|2\.00\d)e\+13 exceeds 1e12", str(ofdm_alone.value))
    with pytest.raises(SingularChannelError, match=r"e\+14 exceeds 1e12") as afdm_alone:
        equalize_zf(specs[1], afdm_refused, r)
    equalize_zf(specs[0], afdm_refused, r)
    equalize_zf(specs[1], ofdm_refused, r)

    for budget in (1, link._CHUNK_ENTRIES, 1 << 22):
        draws = iter(chans)
        monkeypatch.setattr(link, "_draw_paths", lambda config, mode, rng: _path_arrays(next(draws).paths))
        monkeypatch.setattr(link, "_CHUNK_ENTRIES", budget)
        with pytest.raises(SingularChannelError) as sweep:
            link._ber_sweep(specs, good.config, QAM16, [10.0, np.inf], len(chans), "zf", seed=3)
        assert str(sweep.value) == str(afdm_alone.value), budget


@pytest.mark.parametrize("n,groups", [(64, 1), (37, 2)])
def test_zf_guards_each_frame_once_per_prefix_vector(monkeypatch, n, groups):
    """Waveforms with equal prefix vectors share H, so a ZF sweep guards each
    frame once per prefix vector: Weyl's bound runs once per draw chunk on
    the stack of all its groups, at the default stack budget and at one
    that cuts the sweep into several chunks, and each waveform's row of a
    chunk is equalize_zf's on that frame's realization, bit for bit."""
    if n == 64:  # tuned AFDM at even N: prefix vector ones, one group
        c1, c2 = afdm_tune(3, 1, 0, 64)
        specs = [OfdmSpec(64, 3), OtfsSpec(k=8, l=8, cp_len=3), AfdmSpec(64, c1, c2, 0, 3)]
    else:  # xi = 1 at odd N: prefix factors -1, a group of its own
        c1, c2 = afdm_tune(3, 1, 1, 37)
        specs = [OfdmSpec(37, 3), AfdmSpec(37, c1, c2, 1, 3)]
    assert len(link._prefix_groups(specs)) == groups
    cfg, frames, stacks = _dispersive_config(n), 37, []
    certified = link._weyl_certified

    def counting(d):
        stacks.append(d.shape[:2])
        return certified(d)

    monkeypatch.setattr(link, "_weyl_certified", counting)
    # at 2^12 entries, 10 frames of 6 rows (S W) or 13 of 8 (groups (ell_max + 1)) per draw
    for budget, draws in ((link._CHUNK_ENTRIES, 1), (1 << 12, {64: 4, 37: 3}[n])):
        stacks.clear()
        monkeypatch.setattr(link, "_CHUNK_ENTRIES", budget)
        rows, sizes = _zf_rows(specs, cfg, [10.0, 20.0], frames, seed=6)
        assert len(sizes) == draws
        assert stacks == [(groups, size) for size in sizes]
        assert sorted((i, w) for i, w, _, _ in rows) == [(i, w) for i in range(frames) for w in range(len(specs))]
        _assert_rows_equal_equalize_zf(rows, specs, cfg, seed=6)


@st.composite
def zf_sweeps(draw):
    """Waveforms at odd, prime or even N in one or two prefix groups, 1 to 3
    SNR points, +inf among the choices, and frames filling one or two ZF sub-stacks."""
    groups = draw(st.integers(1, 2))
    # a tuned AFDM's prefix vector is ones at even N and -1 at odd N; a given
    # chirp rate with 2 N c1 not an integer makes neither
    n = draw(st.sampled_from([36, 64] if groups == 1 else [31, 36, 37, 45, 64]))
    xi = draw(st.integers(0, 1))
    c1, c2 = afdm_tune(3, 1, xi, n)
    if groups == 2 and n % 2 == 0:
        c1 = 0.0123
    specs = [OfdmSpec(n, 3), AfdmSpec(n, c1, c2, xi, 3)]
    k = draw(st.sampled_from([k for k in range(2, n) if n % k == 0] or [1]))
    if k > 1:
        specs.insert(1, OtfsSpec(k=k, l=n // k, cp_len=3))
    assert len(link._prefix_groups(specs)) == groups
    size, subs = link._stack_size(n * n), draw(st.integers(1, 2))
    frames = draw(st.integers((subs - 1) * size + 1, subs * size))
    snrs = draw(st.lists(st.sampled_from([0.0, 10.0, 25.0, np.inf]), min_size=1, max_size=3, unique=True))
    mode = draw(st.sampled_from(["integer", "fractional"]))
    return specs, _dispersive_config(n), snrs, frames, draw(st.integers(0, 2**16)), mode


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(case=zf_sweeps())
def test_stacked_zf_rows_equal_equalize_zf_bit_for_bit(case):
    """Every row of a stacked ZF sweep is equalize_zf's on that frame alone,
    bit for bit, and a refused sweep names the first H refused alone."""
    specs, cfg, snrs, frames, seed, mode = case
    try:
        rows, _ = _zf_rows(specs, cfg, snrs, frames, seed, mode)
    except SingularChannelError as refusal:
        _assert_names_the_first_refusal(refusal, specs, cfg, frames, seed, mode)
        return
    _assert_rows_equal_equalize_zf(rows, specs, cfg, seed, mode)


def _assert_names_the_first_refusal(refusal, specs, cfg, frames, seed, mode):
    """The refusal is that of the first H equalize_zf refuses alone, in frame
    and then prefix group order."""
    for i in range(frames):
        chan = sample_paths(cfg, mode, link.substream(seed, i))
        for group in link._prefix_groups(specs):
            try:
                equalize_zf(specs[group[0]], chan, np.ones(cfg.N))
            except SingularChannelError as alone:
                assert str(refusal) == str(alone)
                return
    raise AssertionError(f"no frame is refused alone, yet the sweep raised {refusal}")


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(n=st.sampled_from([31, 36, 64]), before=st.integers(0, 5), after=st.integers(0, 5),
       eps=st.sampled_from([1e-14, 1e-11, 1e-8]), seed=st.integers(0, 2**16))
def test_certified_answers_each_frame_alone_amid_a_failing_one(n, before, after, eps, seed):
    """A stack with a frame whose Cholesky fails amid certifiable ones: the
    failed pivot's NaNs stay in its frame, and each answer is the one-frame
    call's."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**16, before + after)
    chans = [_realization(n, _dominant_paths(int(s), 3, 3, 1), f_max=1) for s in seeds]
    chans.insert(before, _realization(n, [(1.0 + 0.0j, 0, 0.0), (-(1.0 - eps) + 0.0j, 0, 1.0)], f_max=1))
    d = np.stack([delay_diagonals(chan, OfdmSpec(n, 3).wrap) for chan in chans])
    got = link._certified(d)
    assert got.tolist() == [link._certified(x) for x in d]
    assert not got[before] and got.sum() == before + after


@st.composite
def stack_budget_cases(draw):
    """A BER sweep of either detector over waveforms in one or two prefix
    groups at 1 to 3 SNR points, +inf among the choices, up to 40 frames;
    and a sensing point of up to 4 trials of a tuned AFDM at the same N."""
    specs, cfg, snrs, _, seed, mode = draw(zf_sweeps())
    n, xi = cfg.N, specs[-1].xi
    sense_spec = AfdmSpec(n, *afdm_tune(cfg.ell_max, cfg.f_max, xi, n), xi, 3)
    detector = draw(st.sampled_from(["zf", "lmmse"]))
    return specs, cfg, snrs, draw(st.integers(1, 40)), detector, seed, mode, sense_spec, draw(st.integers(1, 4))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(case=stack_budget_cases())
def test_no_result_depends_on_the_stack_sizes(case):
    """A sweep's per-frame estimates, bit errors and PAPR, its LinkResults
    or its refusal, and a sensing point's estimates are bit for bit the same
    at a stack budget of one entry (every stack one frame), at the default
    and at 2^22 entries (one draw for the sweep)."""
    specs, cfg, snrs, frames, detector, seed, mode, sense_spec, trials = case
    run_frames, demod, outcomes = link._run_frames, link.demodulate, []
    W = len(specs)
    for budget in (1, link._CHUNK_ENTRIES, 1 << 22):
        chunks, estimates = [], []

        def recording(*args):
            chunks.append(run_frames(*args))
            return chunks[-1]

        def demodulating(spec, z):
            estimates.append(demod(spec, z))
            return estimates[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(link, "_CHUNK_ENTRIES", budget)
            mp.setattr(link, "_run_frames", recording)
            mp.setattr(link, "demodulate", demodulating)
            sensed = sensing._sense_trials(sense_spec, cfg, QPSK, snrs[0], mode, seed,
                                           [(0, t) for t in range(trials)], 1, 10)
            try:
                results = link._ber_sweep(specs, cfg, QAM16, snrs, frames, detector, seed, mode)
            except SingularChannelError as refusal:
                outcomes.append((str(refusal), sensed))
                continue
        errors = np.concatenate([e for e, _ in chunks], axis=1)
        paprs = np.concatenate([p for _, p in chunks], axis=1)
        assert errors.shape == (W, frames, len(snrs)) and len(estimates) == W * len(chunks)
        # one demodulate per chunk and waveform: each waveform's (frames, S, N) estimates
        x_hat = [np.concatenate(estimates[k::W]).tobytes() for k in range(W)]
        outcomes.append((x_hat, errors.tobytes(), paprs.tobytes(), results, sensed))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("budget", [1, 1 << 12, link._CHUNK_ENTRIES, 1 << 22])
def test_draw_and_solver_stacks_stay_within_the_budget(monkeypatch, budget):
    """Each _draw_frames stack of a BER sweep or a sensing point holds at
    most _CHUNK_ENTRIES entries in its largest O(N) stack, `rows` length-N
    rows per frame, and is as large as that allows; each solver sub-stack
    holds at most as many in its own arrays, ZF's (b, N, N) folded H's,
    the ZF guard's (b, N + w, max(2w, 1)) band stores and LMMSE's (b, nb,
    m, width) block rows. A stack of one frame is the only exception. The
    ber-small-n64 shape draws its 50 frames at once."""
    monkeypatch.setattr(link, "_CHUNK_ENTRIES", budget)
    draws, folded, reductions, grams = [], [], [], []
    draw_frames, fold, reduce, gram = link._draw_frames, link._folded, link._cyclic_reduction, link._gram

    def drawing(*args):
        draws.append(list(args[-1]))
        return draw_frames(*args)

    def folding(d):
        folded.append(len(d))
        return fold(d)

    def reducing(F, m):
        reductions.append(F.shape)
        return reduce(F, m)

    def gramming(d, lay):
        grams.append((len(d), len(d) * (d.shape[-1] + lay.half_width) * lay.store_width))
        return gram(d, lay)

    monkeypatch.setattr(link, "_draw_frames", drawing)
    monkeypatch.setattr(sensing, "_draw_frames", drawing)
    monkeypatch.setattr(link, "_folded", folding)
    monkeypatch.setattr(link, "_cyclic_reduction", reducing)
    monkeypatch.setattr(link, "_gram", gramming)
    c1, c2 = afdm_tune(3, 1, 1, 37)
    odd = [OfdmSpec(37, 3), AfdmSpec(37, c1, c2, 1, 3)]  # two prefix groups
    three = [spec for _, spec in ScenarioConfig.from_dict({"n": 64, "k": 8, "l": 8}).waveform_specs()]
    cases = [  # (specs, N, snrs, frames, detector); rows = max(S W, groups (ell_max + 1))
        (three, 64, [10.0, 20.0], 50, "zf"),  # the ber-small-n64 shape: 6 rows
        ([OfdmSpec(128, 3), OtfsSpec(k=8, l=16, cp_len=3)], 128, [0.0, 10.0, 20.0], 30, "lmmse"),  # 6 rows
        (odd, 37, [float(s) for s in range(21)], 60, "zf"),  # 42 rows, more than N
        (odd, 37, [10.0, np.inf], 60, "lmmse"),  # 8 rows of diagonals
    ]
    for specs, N, snrs, frames, detector in cases:
        for record in (draws, folded, reductions, grams):
            record.clear()
        cfg = _dispersive_config(N)
        link._ber_sweep(specs, cfg, QAM16, snrs, frames, detector, 4, "fractional")
        rows = max(len(snrs) * len(specs), len(link._prefix_groups(specs)) * (cfg.ell_max + 1))
        assert [key for keys in draws for key in keys] == [(i,) for i in range(frames)]
        for keys in draws:
            assert len(keys) * rows * N <= budget or len(keys) == 1
        for keys in draws[:-1]:
            assert (len(keys) + 1) * rows * N > budget
        for b in folded:
            assert b * N * N <= budget or b == 1
        for shape in reductions:
            assert np.prod(shape) <= budget or shape[0] == 1
        if detector == "zf":  # LMMSE's Gram sub-stacks are its block rows'
            assert grams and all(entries <= budget or b == 1 for b, entries in grams)
        assert (detector == "zf") == bool(folded) and (detector == "lmmse") == bool(reductions)
        if budget == 1 << 16 and specs is three:  # the default budget
            assert [len(keys) for keys in draws] == [50]
    # a sensing point: H's (B, ell_max + 1, N) diagonals are its largest stack
    draws.clear()
    cfg = _dispersive_config(64)
    keys = [(1, t) for t in range(40)]
    sensing._sense_trials(OtfsSpec(k=8, l=8, cp_len=3), cfg, QPSK, 10.0, "fractional", 7, keys, 1, 10)
    assert [key for chunk in draws for key in chunk] == keys
    for chunk in draws:
        assert len(chunk) * (cfg.ell_max + 1) * 64 <= budget or len(chunk) == 1
    for chunk in draws[:-1]:
        assert (len(chunk) + 1) * (cfg.ell_max + 1) * 64 > budget


def test_zf_guard_decides_each_frame_of_a_stack():
    """One guard call on a (G, B) stack decides each frame as np.linalg.cond(H) > 1e12.

    B = 16 channels at N = 64 under OFDM's prefix rule and a given-c1 AFDM's,
    with near-singular frames (cond 2e11, 2e13, 5e12) at 0, 7 and 15. The
    stacked certificates give each frame its one-frame answer, so a Cholesky
    failure leaves the other frames certified. The guard raises with the
    first refused H's message, in frame and then group order, and every
    later call refuses that H with the same message.
    """
    cfg, rng = _dispersive_config(64), np.random.default_rng(77)
    chans = [sample_paths(cfg, "fractional", rng) for _ in range(16)]
    for b, eps in ((0, 1e-11), (7, 1e-13), (15, 4e-13)):
        chans[b] = _realization(64, [(1.0 + 0.0j, 0, 0.0), (-(1.0 - eps) + 0.0j, 0, 1.0)], f_max=1)
    wraps = [OfdmSpec(64, 3).wrap, AfdmSpec(64, 0.0123, 0.011, cp_len=3).wrap]
    d = np.stack([[delay_diagonals(chan, wrap) for chan in chans] for wrap in wraps])
    flat = d.reshape(32, 4, 64)
    conds = [np.linalg.cond(_dense_H(x)) for x in flat]
    refused = [(b, g) for b in range(16) for g in range(2) if conds[16 * g + b] > 1e12]
    assert refused == [(7, 0), (7, 1), (15, 0), (15, 1)]

    for stage in (link._weyl_certified, link._certified):
        assert stage(d).shape == (2, 16)
        assert stage(d).ravel().tolist() == [stage(x).item() for x in flat]
    cholesky = link._certified(d)
    assert not cholesky[:, [0, 7, 15]].any() and cholesky.sum() >= 20

    # a stack names its first refused H in frame and then group order: frame
    # 7's H of the first group, and from frame 8 on frame 15's; the second
    # group alone names its own H's of the same frames
    for groups in (d, d[1:]):
        start = 0
        for b in (7, 15):
            link._zf_guard(groups[:, start:b])
            with pytest.raises(SingularChannelError) as first:
                link._zf_guard(groups[:, start:])
            with pytest.raises(SingularChannelError) as alone:
                link._zf_guard(groups[0, b][None, None])
            assert str(first.value) == str(alone.value)
            start = b + 1

    with pytest.raises(SingularChannelError, match=r"(1\.99\d|2\.00\d)e\+13 exceeds 1e12") as stack:
        link._zf_guard(d)
    # each call decides H afresh: frame 7 is refused by every call, with one message
    for _ in range(2):
        with pytest.raises(SingularChannelError) as again:
            equalize_zf(OfdmSpec(64, 3), chans[7], np.ones(64, dtype=complex))
        assert str(again.value) == str(stack.value)


def test_zf_keeps_no_refusal_and_no_other_prefix_vectors_channel():
    """A refused H is refused by every call, whatever the waveform, with one
    message; each prefix vector gets its own H, so a waveform's estimate on
    a realization another waveform used first is bit for bit its estimate
    on a fresh realization."""
    chan = _near_singular(1e-13)
    c1, c2 = afdm_tune(0, 1, 0, 64)
    specs = [OfdmSpec(64), OtfsSpec(k=8, l=8), AfdmSpec(64, c1, c2), OfdmSpec(64)]
    messages = []
    for spec in specs:
        with pytest.raises(SingularChannelError) as refusal:
            equalize_zf(spec, chan, np.ones((2, 64), dtype=complex))
        messages.append(str(refusal.value))
    assert len(set(messages)) == 1 and "exceeds 1e12" in messages[0]

    cfg = _dispersive_config(36)
    given_c1 = AfdmSpec(36, 0.0123, 0.011, cp_len=3)  # 2 N c1 = 0.89: wrap is not +-1
    assert not np.allclose(np.abs(given_c1.wrap.real), 1.0)
    r = np.stack([_block(36, s) for s in range(3)])
    for order in ([OfdmSpec(36, 3), given_c1], [given_c1, OfdmSpec(36, 3)]):
        shared = sample_paths(cfg, "fractional", link.substream(9, 0))
        for spec in order:
            fresh = sample_paths(cfg, "fractional", link.substream(9, 0))
            assert equalize_zf(spec, shared, r).tobytes() == equalize_zf(spec, fresh, r).tobytes()


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


def test_equalizers_take_a_stack_of_blocks_row_by_row():
    for seed, spec in enumerate(_three_waveforms()):
        chan = _realization(spec.n, _dominant_paths(seed, 3, 3, 1), f_max=1)
        R = np.stack([_block(spec.n, 40 + 10 * seed + s) for s in range(3)])
        zf, lmmse = equalize_zf(spec, chan, R), equalize_lmmse(spec, chan, R, 0.1)
        assert zf.shape == lmmse.shape == R.shape
        for s in range(3):
            assert np.max(np.abs(zf[s] - equalize_zf(spec, chan, R[s]))) <= 1e-12
            assert np.max(np.abs(lmmse[s] - equalize_lmmse(spec, chan, R[s], 0.1))) <= 1e-12
    # the guard reads H alone: a stack through a cond 2e13 channel is refused
    with pytest.raises(SingularChannelError, match="exceeds 1e12"):
        equalize_zf(OfdmSpec(64), _near_singular(1e-13), np.ones((3, 64), dtype=complex))
    for bad in (np.ones((2, 3, spec.n)), np.ones((3, spec.n - 1)), np.ones(spec.n + 1)):
        with pytest.raises(ValueError, match="received blocks must have shape"):
            equalize_zf(spec, chan, bad)


def _svd_test_cases():
    """(spec, channel) pairs: 2,000 sampled N = 64 fractional-Doppler channels
    under OFDM's and AFDM's prefix rules, and 26 near-singular ones across
    the 1e12 boundary."""
    cfg = _dispersive_config(64)
    c1, c2 = afdm_tune(3, 2, 0, 64)
    rng = np.random.default_rng(2024)
    cases = [
        (spec, sample_paths(cfg, "fractional", rng))
        for spec in (OfdmSpec(64, 3), AfdmSpec(64, c1, c2, 0, 3))
        for _ in range(1000)
    ]
    return cases + [(OfdmSpec(64), _near_singular(eps)) for eps in np.logspace(-14, -9, 26)]


def test_zf_guard_decides_as_the_svd_test():
    """Certificates plus fallback against np.linalg.cond(H) > 1e12, frame by
    frame, on _svd_test_cases. Every H
    certified by either stage, Weyl's bound or the Cholesky certificate,
    must have cond(H) <= sqrt(2 / tau_N), and Weyl's bound must clear some
    of the sampled channels.
    """
    cases = _svd_test_cases()
    bound = np.sqrt(2.0 / ((4 * 64 + 64) * 2.0**-53))
    r = np.ones(64, dtype=complex)
    fallbacks = refusals = weyl = 0
    for spec, chan in cases:
        d = delay_diagonals(chan, spec.wrap)
        cond = np.linalg.cond(_dense_H(d))
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


def _dense_H(d):
    """Dense H from its (ell_max + 1, N) diagonals: H[n, (n - ell) mod N] = d[ell][n]."""
    E, N = d.shape
    n = np.arange(N)
    H = np.zeros((N, N), dtype=complex)
    for ell, diag in enumerate(d):
        H[n, (n - ell) % N] = diag
    return H


def _dense_certified(d):
    """The Cholesky certificate by a dense reference: np.linalg.cholesky of
    folded M = fl(A) - tau_N tr(A) I, fl(A)'s cyclic diagonals from _gram
    placed here by the fold permutation; no certificate for a trace outside
    (1e-200, 1e200)."""
    E, N = d.shape
    a = link._gram(d[None], link._band_layout(N, E - 1))
    offsets = sorted({o % N for o in range(-(E - 1), E)})
    trace = a[:, offsets.index(0)].real.sum(axis=1)[0]
    _, inv = link._fold(N)
    n = np.arange(N)
    M = np.zeros((N, N), dtype=complex)
    for o, diag in zip(offsets, a[0]):
        M[inv[n], inv[(n - o) % N]] = diag
    M[n, n] -= link._tau(N) * trace
    if not 1e-200 < trace < 1e200:
        return False
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def test_certified_clears_exactly_what_a_dense_cholesky_clears():
    """The banded certificate, one call per stack of _svd_test_cases' sampled
    (ell_max = 3) and near-singular (ell_max = 0) channels, clears exactly
    the frames that the dense reference clears."""
    cases = _svd_test_cases()
    refused = 0
    for part in (cases[:2000], cases[2000:]):
        d = np.stack([delay_diagonals(chan, spec.wrap) for spec, chan in part])
        got = link._certified(d)
        assert got.tolist() == [_dense_certified(x) for x in d]
        refused += len(got) - got.sum()
    assert 26 < refused < len(cases)


@pytest.mark.filterwarnings("ignore:channel is not underspread")
@pytest.mark.parametrize("n", [1, 2, 3, 7, 37, 61])
def test_certified_agrees_with_the_dense_reference_at_the_edges(n):
    """At small, prime and odd N, for ell_max = 0, a band wide enough to wrap
    (2 ell_max >= N), P > ell_max + 1 and traces outside (1e-200, 1e200),
    the banded certificate clears what the dense reference clears, every
    cleared H has cond(H) <= sqrt(2 / tau_N), and the guard refuses exactly
    the H's with cond(H) > 1e12."""
    rng = np.random.default_rng(n)
    bound = np.sqrt(2.0 / link._tau(n))
    answers = []
    for ell_max in sorted({0, 1, n // 2, min(3, n - 1), n - 1} & set(range(n))):
        f_max = min(1, n // 2)
        d = []
        for P in (1, ell_max + 3):
            cfg = ChannelConfig(N=n, f_s=1e7, f_c=5.9e9, ell_max=ell_max, f_max=f_max, P=P, cp_len=ell_max)
            d += [delay_diagonals(sample_paths(cfg, "fractional", rng), np.ones(n)) for _ in range(6)]
        if n > 1:  # one delay, 1 - (1 - eps) e^{j2pi m/N}: cond(H) = (2 - eps) / eps
            d += [delay_diagonals(_realization(n, [(1.0 + 0.0j, 0, 0.0), (eps - 1.0 + 0.0j, 0, 1.0)],
                                               ell_max, 1), np.ones(n)) for eps in (1e-14, 1e-8, 0.5)]
        d = np.stack(d)
        d = np.concatenate([d, d[:2] * 1e-110, d[:2] * 1e110])  # traces out of range
        got = link._certified(d)
        assert got.tolist() == [_dense_certified(x) for x in d], ell_max
        assert not got[-4:].any()
        for x, certified in zip(d, got):
            cond = np.linalg.cond(_dense_H(x))
            assert cond <= bound or not certified
            try:
                link._zf_guard(x[None, None])
                refused = False
            except SingularChannelError:
                refused = True
            assert refused == (not np.isfinite(cond) or cond > 1e12), (ell_max, cond)
        answers += got.tolist()
    assert any(answers) and not all(answers)


def test_certified_keeps_an_n1024_frame_far_below_a_dense_matrix():
    """One N = 1024 frame peaks, under tracemalloc, below an eighth of a
    dense N x N complex matrix: the certificate forms no N x N array."""
    cfg = ChannelConfig(N=1024, f_s=1e7, f_c=5.9e9, ell_max=3, f_max=2, P=3, cp_len=3)
    d = delay_diagonals(sample_paths(cfg, "fractional", np.random.default_rng(3)), np.ones(1024))
    expected = _dense_certified(d)  # also builds the cached layout outside the measurement
    tracemalloc.start()
    try:
        got = link._certified(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 1024 * 1024 * 16 / 8, peak

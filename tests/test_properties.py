"""Property tests: direct CSI extraction, from G and from the channel's closed form, the
equalizers (ZF per block, LMMSE stacked) against dense G-domain solves, and the time-domain
pipeline against effective_channel and the oracle, for tuned and given AFDM rates."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from ddwave.channel import (
    ChannelConfig,
    ChannelRealization,
    PathParams,
    _stack_diagonals,
    delay_diagonals,
    doppler_phases,
    time_domain_apply,
)
from ddwave.link import _lmmse_solve, _zf_solve
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
    _ChannelCsi,
    _afdm_rows,
    _integer_candidates,
    _parseval_bounds,
    direct_csi_extract,
)


@st.composite
def spec_with_operators(draw):
    """A tuned AFDM spec or an OTFS spec (odd and non-square K x L included),
    with its dense oracle transforms and prefix phase rule."""
    if draw(st.booleans()):
        f_max, xi = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        n = draw(st.integers(2 * (f_max + xi) + 1, 48))
        c1, c2 = afdm_tune(0, f_max, xi, n)
        spec = AfdmSpec(n, c1, c2, xi=xi)
        return spec, oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n)
    k, l = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    return OtfsSpec(k, l), oracle.otfs_ops(k, l), oracle.zero_cycles


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    case=spec_with_operators(),
    pick=st.integers(0, 10**6),
    mag=st.floats(0.6, 2.0),  # above the default threshold 1/(2N) for every N
    angle=st.floats(-np.pi, np.pi),
)
def test_direct_extraction_recovers_any_single_integer_path(case, pick, mag, angle):
    spec, (tx, rx), phase = case
    ells, fs = _integer_candidates(spec)
    c = pick % len(ells)
    ell, f = int(ells[c]), int(fs[c])
    gain = mag * np.exp(1j * angle)
    G = oracle.effective_matrix(tx, rx, [(gain, ell, float(f))], phase)
    (est,) = direct_csi_extract(G, spec, 1)
    assert (est.delay_norm_hat, est.doppler_norm_hat) == (ell, f)
    assert abs(est.gain_hat - gain) < 1e-10


PRIMES = [p for p in range(2, 62) if all(p % q for q in range(2, p))]


@st.composite
def channels(draw):
    """A spec with its dense oracle transforms and prefix phase rule, and a channel for it.

    Tuned AFDM with prime N and xi > 0, or OTFS with K != L, ell_max = K - 1
    and optional non-rectangular pulses; integer or fractional Doppler; up to
    ell_max + 3 paths, so delays repeat.
    """
    if draw(st.booleans()):
        ell_max, f_max, xi = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
        stride = 2 * (f_max + xi) + 1
        span = max(stride * ell_max + 2 * f_max + 1, stride)
        n = draw(st.sampled_from([p for p in PRIMES if p >= span]))
        c1, c2 = afdm_tune(ell_max, f_max, xi, n)
        spec = AfdmSpec(n, c1, c2, xi=xi, cp_len=ell_max)
        ops, phase = oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n)
    else:
        k = draw(st.integers(2, 7))
        l = draw(st.integers(2, 7).filter(lambda l: l != k))
        ell_max, f_max = k - 1, draw(st.integers(0, (l - 1) // 2))
        spec = OtfsSpec(k, l, cp_len=ell_max)
        p_tx = p_rx = np.ones(k)
        if draw(st.booleans()):  # non-rectangular pulses
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            p_tx, p_rx = rng.uniform(0.5, 1.5, (2, k)) * np.exp(2j * np.pi * rng.random((2, k)))
            spec = OtfsSpec(k, l, cp_len=ell_max, pulse_tx=tuple(p_tx), pulse_rx=tuple(p_rx))
        fl = oracle.dft(l)
        ops = np.kron(fl.conj().T, np.diag(p_tx)), np.kron(fl, np.diag(p_rx))
        phase = oracle.zero_cycles
    fractional = draw(st.booleans())
    paths = []
    for _ in range(draw(st.integers(1, ell_max + 3))):
        if fractional:
            f = draw(st.floats(-f_max - 0.5, f_max + 0.5))
        else:
            f = float(draw(st.integers(-f_max, f_max)))
        gain = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                                       allow_nan=False, allow_infinity=False))
        paths.append(PathParams(gain, draw(st.integers(0, ell_max)), f))
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max, P=len(paths),
                        cp_len=ell_max)
    return spec, ops, phase, ChannelRealization(cfg, tuple(paths))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=channels())
def test_closed_form_support_entries_and_scores_match_the_oracle(case):
    spec, (tx, rx), phase, chan = case
    G = oracle.effective_matrix(tx, rx, [(p.gain, p.delay_norm, p.doppler_norm) for p in chan.paths],
                                phase)
    ells, fs = _integer_candidates(spec)
    rows, cols = _support_indices(spec, ells, fs)
    want = G[rows, cols]
    want_scores = np.abs(want).mean(axis=1)
    diags = delay_diagonals(chan, spec.wrap)
    csi = _ChannelCsi(spec, diags.shape[0])
    P = chan.config.P
    scores, entries = csi.support(diags, P, 1.0 / (2 * spec.n))
    scored = np.flatnonzero(scores > -np.inf)
    if isinstance(spec, AfdmSpec):
        # every candidate's row Q[c], scored or pruned, gives its support entries
        # after the chirps, and the Parseval bounds bracket its score
        a = csi.coefficients(diags)
        _, ch2, _, ch2_conj = spec._chirps
        Q = np.take_along_axis(_afdm_rows(a, csi.phases), cols, axis=-1)
        assert np.max(np.abs(ch2[rows] * ch2_conj[cols] * Q - want)) < 1e-10
        lower, upper = _parseval_bounds(a)
        assert np.all(lower <= want_scores + 1e-10)
        assert np.all(want_scores <= upper + 1e-10)
    else:
        assert scored.size == len(ells)  # OTFS scores every candidate
    if scored.size:
        assert np.max(np.abs(entries(scored) - want[scored])) < 1e-10
        assert np.max(np.abs(scores[scored] - want_scores[scored])) < 1e-10

    # the channel route ranks like the oracle's scores (up to rounding at ties) and
    # fits each winner's gain against the oracle's unit-path probe
    ests = csi(diags, P)
    index = {pair: c for c, pair in enumerate(zip(ells.tolist(), fs.tolist()))}
    picked = [index[(int(e.delay_norm_hat), int(e.doppler_norm_hat))] for e in ests]
    threshold = 1.0 / (2 * spec.n)
    floor = want_scores[picked].min() if len(picked) == P else threshold
    assert np.all(want_scores[picked] >= threshold - 1e-10)
    assert np.all(np.delete(want_scores, picked) <= floor + 1e-10)
    for c, est in zip(picked, ests):
        G1 = oracle.effective_matrix(tx, rx, [(1.0, int(ells[c]), float(fs[c]))], phase)
        assert abs(est.gain_hat - np.mean(want[c] / G1[rows[c], cols[c]])) < 1e-10


@st.composite
def afdm_channels(draw):
    """Prime-N AFDM with xi > 0 and its dense oracle transforms and prefix phase rule,
    with tuned rates or a given c1, 2*N*c1 an integer, and c2; and a channel of up
    to ell_max + 3 fractional-Doppler paths."""
    ell_max, f_max, xi = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    given_rates = draw(st.booleans())
    stride = 2 * (f_max + xi) + 1 + (draw(st.integers(0, 3)) if given_rates else 0)
    n = draw(st.sampled_from([p for p in PRIMES if p >= max(stride * ell_max + 2 * f_max + 1, stride)]))
    if given_rates:
        c1, c2 = stride / (2 * n), draw(st.floats(-0.5, 0.5))
    else:
        c1, c2 = afdm_tune(ell_max, f_max, xi, n)
    spec = AfdmSpec(n, c1, c2, xi=xi, cp_len=ell_max)
    paths = tuple(
        PathParams(
            draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                                    allow_nan=False, allow_infinity=False)),
            draw(st.integers(0, ell_max)),
            draw(st.floats(-f_max - 0.5, f_max + 0.5)),
        )
        for _ in range(draw(st.integers(1, ell_max + 3)))
    )
    cfg = ChannelConfig(N=n, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max, P=len(paths),
                        cp_len=ell_max)
    return spec, oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n), ChannelRealization(cfg, paths)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=afdm_channels())
def test_parseval_bounds_bracket_the_oracle_scores_and_pruning_keeps_the_oracle_ranking(case):
    spec, (tx, rx), phase, chan = case
    G = oracle.effective_matrix(tx, rx, [(p.gain, p.delay_norm, p.doppler_norm) for p in chan.paths],
                                phase)
    ells, fs = _integer_candidates(spec)
    want_scores = np.abs(G[_support_indices(spec, ells, fs)]).mean(axis=1)
    diags = delay_diagonals(chan, spec.wrap)
    csi = _ChannelCsi(spec, diags.shape[0])
    lower, upper = _parseval_bounds(csi.coefficients(diags))
    assert np.all(lower <= want_scores + 1e-10)
    assert np.all(want_scores <= upper + 1e-10)
    for P in range(1, 7):  # up to more targets than candidates above the threshold
        got = csi(diags, P)
        want = direct_csi_extract(G, spec, P)
        assert [(e.delay_norm_hat, e.doppler_norm_hat) for e in got] == \
            [(e.delay_norm_hat, e.doppler_norm_hat) for e in want]
        for a, b in zip(got, want):
            assert abs(a.gain_hat - b.gain_hat) < 1e-12


@st.composite
def channel_stacks(draw):
    """A spec with its dense oracle transforms and prefix phase rule, and (B, P) path arrays.

    OFDM and AFDM (xi > 0) at prime N, or OTFS with K != L; P > ell_max + 1
    paths, so delays repeat. N = 127, and N = 97 or 101 with B >= 2, are
    solved by cyclic reduction over more than one block.
    AFDM takes the tuned rates or a given pair (c1, c2), for which 2*N*c1
    and 2*N^2*c1 are in general not integers. Path 0 is a unit direct path
    and the others sum to at most 1/2 in magnitude, so cond(H) <= 3 and a
    dense solve is a sharp reference.
    """
    ell_max = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["ofdm", "otfs", "afdm"]))
    primes = [97, 101, 127] if draw(st.booleans()) else PRIMES
    if kind == "afdm":
        f_max, xi = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        if draw(st.booleans()):  # a given pair
            n = draw(st.sampled_from([p for p in primes if p >= max(2 * f_max + 1, ell_max + 1)]))
            c1, c2 = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        else:
            span = (2 * (f_max + xi) + 1) * ell_max + 2 * f_max + 1
            n = draw(st.sampled_from([p for p in primes if p >= max(span, ell_max + 1)]))
            c1, c2 = afdm_tune(ell_max, f_max, xi, n)
        spec = AfdmSpec(n, c1, c2, xi=xi, cp_len=ell_max)
        ops, phase = oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n)
    elif kind == "ofdm":
        spec = OfdmSpec(draw(st.sampled_from([p for p in primes if p > ell_max])), ell_max)
        f_max = draw(st.integers(0, min(2, spec.n // 2)))
        ops, phase = oracle.ofdm_ops(spec.n), oracle.zero_cycles
    else:
        k = draw(st.integers(max(ell_max + 1, 2), 8))
        l = draw(st.integers(2, 8).filter(lambda l: l != k))
        f_max = draw(st.integers(0, (l - 1) // 2))
        spec = OtfsSpec(k, l, cp_len=ell_max)
        ops, phase = oracle.otfs_ops(k, l), oracle.zero_cycles
    B, P = draw(st.integers(1, 3)), draw(st.integers(ell_max + 2, ell_max + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weak = rng.uniform(0.0, 0.5 / (P - 1), (B, P - 1)) * np.exp(2j * np.pi * rng.random((B, P - 1)))
    gains = np.concatenate([np.ones((B, 1)), weak], axis=1)
    delays = np.concatenate([np.zeros((B, 1), dtype=int), rng.integers(0, ell_max + 1, (B, P - 1))], axis=1)
    dopplers = rng.uniform(-f_max - 0.5, f_max + 0.5, (B, P))
    return spec, ops, phase, (ell_max, f_max, gains, delays, dopplers)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(case=channel_stacks(), noise_var=st.sampled_from([0.0, 0.05, 0.3]))
def test_equalizers_match_dense_g_domain_solves(case, noise_var):
    spec, (tx, rx), phase, (ell_max, _, gains, delays, dopplers) = case
    d = _stack_diagonals(ell_max, gains, delays, doppler_phases(spec.n, dopplers), spec.wrap)
    r = np.random.default_rng(len(gains)).standard_normal((len(gains), spec.n, 2)) @ np.array([1.0, 1.0j])
    lmmse = spec._rx(_lmmse_solve(d, r, noise_var))
    for b in range(len(gains)):
        G = oracle.effective_matrix(tx, rx, list(zip(gains[b], delays[b], dopplers[b])), phase)
        y = rx @ r[b]
        zf = spec._rx(_zf_solve(d[b], r[b]))
        assert np.max(np.abs(zf - np.linalg.solve(G, y))) <= 1e-10
        A = G @ G.conj().T + noise_var * np.eye(spec.n)
        assert np.max(np.abs(lmmse[b] - G.conj().T @ np.linalg.solve(A, y))) <= 1e-10


@pytest.mark.filterwarnings("ignore:channel is not underspread")
@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(case=channel_stacks())
def test_pipeline_equals_effective_channel_equals_the_oracle(case):
    spec, (tx, rx), phase, (ell_max, f_max, gains, delays, dopplers) = case
    paths = [(complex(g), int(ell), float(f)) for g, ell, f in zip(gains[0], delays[0], dopplers[0])]
    cfg = ChannelConfig(N=spec.n, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max, P=len(paths),
                        cp_len=ell_max)
    chan = ChannelRealization(cfg, tuple(PathParams(*p) for p in paths))
    x = np.random.default_rng(spec.n).standard_normal((spec.n, 2)) @ np.array([1.0, 1.0j])
    y = demodulate(spec, time_domain_apply(prepend_cp(spec, modulate(spec, x)), chan))
    G = effective_channel(spec, chan)
    assert np.max(np.abs(y - G @ x)) <= 1e-10
    assert np.max(np.abs(G - oracle.effective_matrix(tx, rx, paths, phase))) <= 1e-10

"""Property tests: direct CSI extraction, from G and from the channel's closed form, the
equalizers (ZF and LMMSE stacked) against dense G-domain solves, the time-domain
pipeline against effective_channel and the oracle, for tuned and given AFDM rates, the
Weyl stage of the ZF guard against the dense condition number, the chirp, prefix and
Doppler phases against exact rational phases, unitary transforms, and predicted supports
against the oracle's."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
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
from ddwave.link import _lmmse_sweep, _weyl_certified, _zf_solve
from ddwave.modem import (
    AfdmSpec,
    OfdmSpec,
    OtfsSpec,
    _integral,
    _support_indices,
    afdm_orthogonality_ok,
    afdm_tune,
    chirp_phases,
    demodulate,
    effective_channel,
    modulate,
    otfs_orthogonality_ok,
    predict_support,
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
    paths, so delays repeat. N = 97, 101 and 127 are many times wider than
    the band.
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
    return spec, ops, phase, _path_stack(ell_max, f_max, B, P, draw(st.integers(0, 2**16)))


def _path_stack(ell_max, f_max, B, P, seed):
    """(ell_max, f_max, gains, delays, dopplers) of B frames of P paths: a unit direct
    path and P - 1 others summing to at most 1/2 in magnitude, fractional Dopplers."""
    rng = np.random.default_rng(seed)
    weak = rng.uniform(0.0, 0.5 / (P - 1), (B, P - 1)) * np.exp(2j * np.pi * rng.random((B, P - 1)))
    gains = np.concatenate([np.ones((B, 1)), weak], axis=1)
    delays = np.concatenate([np.zeros((B, 1), dtype=int), rng.integers(0, ell_max + 1, (B, P - 1))], axis=1)
    dopplers = rng.uniform(-f_max - 0.5, f_max + 0.5, (B, P))
    return ell_max, f_max, gains, delays, dopplers


def _afdm_case(n, c1, c2, xi, ell_max, f_max, B, P, seed):
    """A channel_stacks case for AFDM with the rates (c1, c2)."""
    spec = AfdmSpec(n, c1, c2, xi=xi, cp_len=ell_max)
    return (spec, oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n),
            _path_stack(ell_max, f_max, B, P, seed))


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(case=channel_stacks(), noise_var=st.sampled_from([0.0, 0.05, 0.3]))
# a given c2 within 1e-9 / 2N of 0, which must not run as c2 = 0; N = 97 and B = 2
# solve over more than one block
@example(case=_afdm_case(97, 0.0, 1e-12, xi=1, ell_max=2, f_max=1, B=2, P=4, seed=0), noise_var=0.05)
def test_equalizers_match_dense_g_domain_solves(case, noise_var):
    spec, (tx, rx), phase, (ell_max, _, gains, delays, dopplers) = case
    d = _stack_diagonals(ell_max, gains, delays, dopplers, spec.wrap)
    r = np.random.default_rng(len(gains)).standard_normal((len(gains), spec.n, 2)) @ np.array([1.0, 1.0j])
    lmmse = spec._rx(_lmmse_sweep(d, r[:, None, None], [noise_var])[:, 0, 0])
    zf = spec._rx(_zf_solve(d, r))
    for b in range(len(gains)):
        G = oracle.effective_matrix(tx, rx, list(zip(gains[b], delays[b], dopplers[b])), phase)
        y = rx @ r[b]
        assert np.max(np.abs(zf[b] - np.linalg.solve(G, y))) <= 1e-10
        A = G @ G.conj().T + noise_var * np.eye(spec.n)
        assert np.max(np.abs(lmmse[b] - G.conj().T @ np.linalg.solve(A, y))) <= 1e-10


@pytest.mark.filterwarnings("ignore:channel is not underspread")
@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(case=channel_stacks())
# prime N, xi > 0, fractional Doppler and P = ell_max + 3 paths, so delays repeat
@example(case=_afdm_case(61, *afdm_tune(2, 1, 1, 61), xi=1, ell_max=2, f_max=1, B=1, P=5, seed=0))
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


@st.composite
def weyl_channels(draw):
    """N, a channel and a prefix vector for the Weyl stage of the ZF guard.

    N odd, prime or even; the prefix factors of OFDM (ones), of a tuned AFDM
    c1 (+-1) or of a given c1 (off the real line). The paths are one of:
      - "spread": a unit path and up to ell_max + 3 others, so delays repeat,
        whose magnitudes sum to a drawn share of it, around the Weyl edge;
      - "dominance": two paths with gain ratio 1 +- 10^-k, on either side of
        the dominance edge |g_1| = |g_0|;
      - "bound": two aligned paths at one integer Doppler whose Weyl bound,
        sharp for OFDM, lies within 10^-e of sqrt(2 / tau_N), on either side
        and across the stage's rounding margin.
    """
    N = draw(st.sampled_from([5, 7, 16, 31, 36, 37, 61, 64, 97]))
    ell_max, f_max = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["spread", "dominance", "bound"]))
    if kind == "spread":
        P = draw(st.integers(1, ell_max + 4))
        share = draw(st.floats(0.0, 1.5))
        weights = rng.random(P - 1)
        gains = np.concatenate([[1.0], share * weights / max(weights.sum(), 1e-300)])
        delays = rng.integers(0, ell_max + 1, P)
    else:
        K = np.sqrt(2.0 / ((4 * N + 64) * 2.0**-53))
        side = draw(st.sampled_from([-1.0, 1.0]))
        if kind == "dominance":
            ratio = 1.0 + side * 10.0 ** -draw(st.integers(1, 15))
        else:
            ratio = (K - 1.0) / (K + 1.0) * (1.0 + side * 10.0 ** -draw(st.integers(3, 15)))
        gains = np.array([1.0, -ratio])
        delays = np.array([0, ell_max]) if draw(st.booleans()) else rng.integers(0, ell_max + 1, 2)
    gains = gains * np.exp(2j * np.pi * rng.random()) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    if kind == "bound":  # aligned phases and one Doppler keep the bound sharp
        dopplers = np.full(2, float(rng.integers(-f_max, f_max + 1)))
    else:
        gains = gains * np.exp(2j * np.pi * rng.random(len(gains)))
        if draw(st.booleans()):
            dopplers = rng.integers(-f_max, f_max + 1, len(gains)).astype(float)
        else:
            dopplers = rng.uniform(-f_max - 0.5, f_max + 0.5, len(gains))
    prefix = draw(st.sampled_from(["ofdm", "afdm tuned", "afdm given"]))
    if prefix == "ofdm":
        wrap = OfdmSpec(N).wrap
    else:
        c1 = (2 * f_max + 1) / (2 * N) if prefix == "afdm tuned" else draw(st.floats(-0.5, 0.5))
        wrap = AfdmSpec(N, c1, 0.0).wrap
    cfg = ChannelConfig(N=N, f_s=1e6, f_c=1e9, ell_max=ell_max, f_max=f_max, P=len(gains),
                        cp_len=ell_max)
    paths = tuple(PathParams(complex(g), int(ell), float(f)) for g, ell, f in zip(gains, delays, dopplers))
    return N, ChannelRealization(cfg, paths), wrap


def _sharp_pair(N, ell, e):
    """Paths 1 and -rho at delays 0 and ell, OFDM: cond(H) = (1 + rho) / (1 - rho), the
    Weyl bound, set to sqrt(2 / tau_N) (1 - 10^-e) up to the rounding of rho."""
    K = np.sqrt(2.0 / ((4 * N + 64) * 2.0**-53))
    bound = K * (1.0 - 10.0**-e)
    rho = (bound - 1.0) / (bound + 1.0)
    cfg = ChannelConfig(N=N, f_s=1e6, f_c=1e9, ell_max=ell, f_max=1, P=2, cp_len=ell)
    chan = ChannelRealization(cfg, (PathParams(1.0, 0, 1.0), PathParams(-rho, ell, 1.0)))
    return N, chan, OfdmSpec(N).wrap


@pytest.mark.filterwarnings("ignore:channel is not underspread")
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=weyl_channels())
@example(case=_sharp_pair(64, 1, 5))   # certified, cond(H) within 1e-5 of the bound
@example(case=_sharp_pair(64, 3, 7))   # inside the stage's rounding margin: not certified
def test_weyl_stage_certifies_only_channels_within_its_bound(case):
    """Every H the Weyl stage certifies has dense np.linalg.cond(H) <= sqrt(2 / tau_N),
    and the bound S / (b_0 - r) itself holds wherever it is finite and moderate."""
    N, chan, wrap = case
    d = delay_diagonals(chan, wrap)
    n = np.arange(N)
    H = np.zeros((N, N), dtype=complex)
    for ell, diag in enumerate(d):
        H[n, (n - ell) % N] = diag
    cond = np.linalg.cond(H)
    if _weyl_certified(d):
        assert cond <= np.sqrt(2.0 / ((4 * N + 64) * 2.0**-53))
    a = np.abs(d)
    hi, lo = a.max(axis=1), a.min(axis=1)
    S = hi.sum()
    den = np.max(lo + hi) - S
    if den > 0 and S / den <= 1e8:
        assert cond <= S / den * (1 + 1e-6)


@pytest.mark.parametrize("N,ell", [(64, 1), (37, 2), (97, 4)])
def test_weyl_stage_is_sharp_up_to_its_rounding_margin(N, ell):
    # the Weyl bound 10^-5 below sqrt(2 / tau_N) certifies; 10^-7 below, inside the
    # margin 2 sqrt(2 tau_N) (5.3e-7 at N = 64), it does not
    for e, certified in ((5, True), (7, False)):
        _, chan, wrap = _sharp_pair(N, ell, e)
        assert _weyl_certified(delay_diagonals(chan, wrap)) == certified


# ---------------------------------------------------------------- exact phases


def _exact_turn(t: Fraction) -> complex:
    """e^{j2pi t} for exact cycles t: reduced as a Fraction to r in [-1/8, 1/8]
    plus q quarter turns, so the one float rounding is of a small angle."""
    q = round(4 * (t - math.floor(t)))
    r = t - math.floor(t) - Fraction(q, 4)
    return complex(math.cos(2 * math.pi * r), math.sin(2 * math.pi * r)) * (1, 1j, -1, -1j)[q % 4]


def _assert_exact(got, cycles, indices):
    """got[n] equals e^{j2pi cycles(n)} to 1e-15 at each sampled index n."""
    want = np.array([_exact_turn(cycles(int(n))) for n in indices])
    assert np.max(np.abs(got[indices] - want)) <= 1e-15


# block sizes up to 2^16, powers of two and odd ones included
SIZES = st.sampled_from([256, 1024, 4096, 2**16]) | st.integers(1, 2**16)


@st.composite
def sampled_indices(draw, N):
    """At most 200 indices of 0..N-1, the last ones included: no N x N array."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return np.unique(np.concatenate([rng.integers(0, N, 200), np.arange(max(N - 4, 0), N)]))


def _assert_exact_chirp_and_prefix(N, c, exact, n):
    """chirp_phases(N, c) and AfdmSpec(N, c, 0).wrap equal e^{-j2pi c n^2} and
    e^{j2pi c (N^2 + 2 N n')} to 1e-15 at the indices n, for c = exact."""
    _assert_exact(chirp_phases(N, c), lambda k: -exact * k * k, n)
    _assert_exact(AfdmSpec(N, c, 0.0).wrap, lambda k: exact * (N * N + 2 * N * (k - N)), n)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(N=SIZES, kind=st.sampled_from(["c1", "c2", "float", "near"]), q=st.integers(-8, 64),
       mantissa=st.integers(2**51, 2**52 - 1), exponent=st.integers(-60, -53), data=st.data())
def test_chirp_and_prefix_phases_match_the_exact_phases(N, kind, q, mantissa, exponent, data):
    """The chirp and prefix phases are exact for c = q / 2N and q / 2N^2 as exact
    rationals, and for any other float c, near one of them or not, as the binary
    fraction it is."""
    if kind in ("c1", "c2"):
        exact = Fraction(q, 2 * N if kind == "c1" else 2 * N * N)
        c = q / (2 * N) if kind == "c1" else q / (2 * N * N)
    else:
        # a float of 53 significant bits, 2^-8 < |c| < 2, from an odd integer
        # mantissa: no simple value such as 0.5 that is itself a q / 2N
        c = (2 * mantissa + 1) * 2.0**exponent * data.draw(st.sampled_from([-1, 1]))
        if kind == "near":  # M c between 4 ulps and 1e-9 off the integer q
            M = data.draw(st.sampled_from([2 * N, 2 * N * N]))
            d = 2.0 ** data.draw(st.floats(math.log2(5 * math.ulp(max(abs(q), 1))), math.log2(1e-9)))
            c = (q + data.draw(st.sampled_from([-d, d]))) / M
        # only the rates the code rounds to q / M are left to the other kinds
        assume(all(_integral(M * c) is None for M in (2 * N, 2 * N * N)))
        exact = Fraction(c)
    _assert_exact_chirp_and_prefix(N, c, exact, data.draw(sampled_indices(N)))


@pytest.mark.parametrize("N,c", [
    (97, 1e-12),                          # the c2 of the equalizer test's AFDM example
    (64, 1.0 / 128 + 1e-12),              # just off a tuned c1
    (37, (3.0 + 2e-13) / (2 * 37 * 37)),  # about 450 ulps off q / 2N^2
    (2**16, -1e-10),
])
def test_chirp_and_prefix_phases_are_exact_off_a_rational(N, c):
    assert all(_integral(M * c) is None for M in (2 * N, 2 * N * N))
    n = np.unique(np.concatenate([np.arange(0, N, max(N // 200, 1)), np.arange(max(N - 4, 0), N)]))
    _assert_exact_chirp_and_prefix(N, c, Fraction(c), n)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(N=SIZES, integer=st.booleans(), u=st.floats(-0.5, 0.5), data=st.data())
def test_doppler_phases_match_the_exact_phases_and_are_odd_bitwise(N, integer, u, data):
    """doppler_phases(N, f) equals e^{j2pi f n/N} to 1e-15 for integer and
    fractional f within +-N/2, and doppler_phases(N, -f) is its conjugate bit
    for bit, signed zeros included."""
    f = float(round(u * N)) if integer else u * N
    got = doppler_phases(N, f)
    _assert_exact(got, lambda k: Fraction(f) * k / N, data.draw(sampled_indices(N)))
    assert doppler_phases(N, -f).tobytes() == np.conj(got).tobytes()
    pair = doppler_phases(N, [f, -f])
    assert pair[0].tobytes() == got.tobytes() and pair[1].tobytes() == np.conj(got).tobytes()


@pytest.mark.parametrize("N", [6, 36, 37, 256, 1024])
def test_tuned_prefix_vector_is_exactly_ones_at_even_n_and_minus_ones_at_odd_stride(N):
    for f_max, xi in ((0, 0), (1, 0), (2, 1)):
        wrap = AfdmSpec(N, *afdm_tune(0, f_max, xi, N)).wrap
        assert np.array_equal(wrap, np.ones(N) if N % 2 == 0 else -np.ones(N))


@st.composite
def any_spec(draw):
    """OFDM, OTFS with unit-modulus adjoint pulses, or AFDM with tuned or any rates, N <= 64."""
    kind = draw(st.sampled_from(["ofdm", "otfs", "afdm tuned", "afdm given"]))
    if kind == "ofdm":
        return OfdmSpec(draw(st.integers(1, 64)))
    if kind == "otfs":
        k, l = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        if not draw(st.booleans()):
            return OtfsSpec(k, l)
        phase = np.exp(2j * np.pi * np.random.default_rng(draw(st.integers(0, 2**16))).random(k))
        return OtfsSpec(k, l, pulse_tx=tuple(phase.conj()), pulse_rx=tuple(phase))
    n = draw(st.integers(1, 64))
    if kind == "afdm tuned":
        f_max = draw(st.integers(0, (n - 1) // 2))
        return AfdmSpec(n, *afdm_tune(0, f_max, 0, n))
    return AfdmSpec(n, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(spec=any_spec())
def test_modulate_and_demodulate_are_unitary_and_adjoint(spec):
    eye = np.eye(spec.n, dtype=complex)
    U, D = modulate(spec, eye), demodulate(spec, eye)  # T_tx^T and T_rx^T: row j is the image of e_j
    assert np.max(np.abs(U @ U.conj().T - eye)) <= 1e-12
    assert np.max(np.abs(D - U.conj().T)) <= 1e-12  # T_rx = T_tx^H
    assert np.max(np.abs(demodulate(spec, U) - eye)) <= 1e-12


@st.composite
def supports(draw):
    """A tuned AFDM or an OTFS spec, its dense oracle operators and prefix phase
    rule, and one integer (delay, Doppler) pair inside its orthogonality region."""
    if draw(st.booleans()):
        ell_max, f_max, xi = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
        span = (2 * (f_max + xi) + 1) * ell_max + 2 * f_max + 1
        n = draw(st.integers(max(span, 2 * (f_max + xi) + 1), 48))
        assert afdm_orthogonality_ok(ell_max, f_max, xi, n)
        c1, c2 = afdm_tune(ell_max, f_max, xi, n)
        spec, ops, phase = AfdmSpec(n, c1, c2, xi), oracle.afdm_ops(n, c1, c2), oracle.chirp_cp_cycles(c1, n)
    else:
        k, l = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        ell_max, f_max = k - 1, (l - 1) // 2
        assert otfs_orthogonality_ok(ell_max, f_max, k, l)
        spec, ops, phase = OtfsSpec(k, l), oracle.otfs_ops(k, l), oracle.zero_cycles
    ell, f = draw(st.integers(0, ell_max)), draw(st.integers(-f_max, f_max))
    return spec, ops, phase, ell, f


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=supports())
def test_predicted_support_equals_the_oracle_support_inside_the_orthogonality_region(case):
    spec, (tx, rx), phase, ell, f = case
    G = oracle.effective_matrix(tx, rx, [(1.0, ell, float(f))], phase)
    assert predict_support(spec, ell, f) == oracle.support_set(G, 1.0 / (2 * spec.n))

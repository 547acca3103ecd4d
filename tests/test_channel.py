"""Channel model: sample-level oracle, H's diagonals and their applier, continuous views."""

import numpy as np
import pytest

import oracle
from ddwave.channel import (
    ChannelConfig,
    ChannelRealization,
    PathParams,
    _apply_diagonals,
    delay_diagonals,
    doppler_phases,
    dvirf_points,
    realization_from_points,
    sample_paths,
    time_domain_apply,
    tvtf,
)
from ddwave.modem import AfdmSpec, OfdmSpec, afdm_tune, demodulate, effective_channel, modulate, prepend_cp


def make_config(N=16, ell_max=3, f_max=2, P=3, cp_len=None):
    return ChannelConfig(
        N=N, f_s=1e7, f_c=5.9e9, ell_max=ell_max, f_max=f_max, P=P,
        cp_len=ell_max if cp_len is None else cp_len,
    )


def single(config, gain, ell, f):
    return ChannelRealization(
        config=config, paths=(PathParams(gain=gain, delay_norm=ell, doppler_norm=f),)
    )


def paths_tuple(chan):
    return [(p.gain, p.delay_norm, p.doppler_norm) for p in chan.paths]


def apply_h(chan, wrap, S):
    """H S through H's diagonals, each block of S given its cyclic tail as
    history, as effective_channel applies them."""
    S, N = np.asarray(S), chan.config.N
    return _apply_diagonals(delay_diagonals(chan, wrap), np.concatenate([S[..., N - chan.config.ell_max :], S], axis=-1))


def operator_matrix(chan, wrap):
    """H assembled column by column from its diagonals: row j of the applied identity is column j."""
    return apply_h(chan, wrap, np.eye(chan.config.N)).T


def oracle_diagonals(H, ell_max):
    """Row ell holds H[n, (n - ell) mod N] of a dense H."""
    n = np.arange(H.shape[0])
    return np.array([H[n, (n - ell) % H.shape[0]] for ell in range(ell_max + 1)])


# ---------------------------------------------------------------- validation

def test_config_rejects_short_cp():
    with pytest.raises(ValueError, match="cp_len"):
        make_config(cp_len=2)


def test_config_rejects_prefix_longer_than_block():
    with pytest.raises(ValueError, match="cp_len must be <= N"):
        make_config(N=16, cp_len=17)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e7])
@pytest.mark.parametrize("name", ["f_s", "f_c"])
def test_config_rejects_rates_that_are_not_finite_and_positive(name, value):
    # unchecked, f_s = nan made dvirf_points return nan and tvtf nan+nanj silently
    rates = {"f_s": 1e7, "f_c": 5.9e9}
    with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
        ChannelConfig(N=16, ell_max=3, f_max=2, P=1, cp_len=3, **{**rates, name: value})
    chan = single(ChannelConfig(N=16, ell_max=3, f_max=2, P=1, cp_len=3, **rates), 0.5j, 2, 1.5)
    assert dvirf_points(chan) == [(2e-7, 1.5 * 1e7 / 16, 0.5j)]
    assert np.isclose(tvtf(chan, 0.0, 0.0), 0.5j)


def test_config_rejects_oversized_bounds():
    with pytest.raises(ValueError):
        make_config(N=4, ell_max=4, f_max=1, cp_len=4)
    with pytest.raises(ValueError):
        make_config(N=8, ell_max=1, f_max=5, cp_len=1)


def test_config_warns_when_not_underspread():
    with pytest.warns(UserWarning, match="underspread") as record:
        make_config(N=16, ell_max=4, f_max=2, cp_len=4)
    # the warning names the code that built the config, not dataclass's generated __init__
    assert [w.filename for w in record] == [__file__]


def test_realization_validates_paths():
    cfg = make_config(P=1)
    with pytest.raises(ValueError, match="paths"):
        ChannelRealization(config=cfg, paths=())
    with pytest.raises(ValueError, match="delay"):
        single(cfg, 1.0, 5, 0.0)
    for f in (2.6, float("nan")):
        with pytest.raises(ValueError, match="Doppler"):
            single(cfg, 1.0, 0, f)


def test_fractional_doppler_may_exceed_integer_bound_by_half():
    cfg = make_config(P=1)
    chan = single(cfg, 1.0, 0, 2.5)
    assert chan.paths[0].doppler_norm == 2.5


# -------------------------------------------------------------- sample_paths

def test_sample_paths_domain_membership():
    cfg = make_config(P=1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        chan = sample_paths(cfg, "integer", rng)
        p = chan.paths[0]
        assert 0 <= p.delay_norm <= cfg.ell_max
        assert p.doppler_norm in set(range(-cfg.f_max, cfg.f_max + 1))


def test_sample_paths_fractional_range():
    cfg = make_config(P=4)
    rng = np.random.default_rng(4)
    for _ in range(50):
        for p in sample_paths(cfg, "fractional", rng).paths:
            assert -cfg.f_max - 0.5 <= p.doppler_norm < cfg.f_max + 0.5
            assert not float(p.doppler_norm).is_integer() or p.doppler_norm == 0


def test_sample_paths_deterministic_under_seed():
    cfg = make_config()
    a = sample_paths(cfg, "fractional", np.random.default_rng(9))
    b = sample_paths(cfg, "fractional", np.random.default_rng(9))
    assert a == b


def test_sample_paths_delays_distinct_when_possible():
    cfg = make_config(N=32, ell_max=5, P=4, cp_len=5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        delays = [p.delay_norm for p in sample_paths(cfg, "integer", rng).paths]
        assert len(set(delays)) == len(delays)


def test_sample_paths_mean_power_unit():
    cfg = make_config(P=3)
    rng = np.random.default_rng(6)
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        total += sum(abs(p.gain) ** 2 for p in sample_paths(cfg, "integer", rng).paths)
    assert abs(total / draws - 1.0) < 0.05


def test_sample_paths_rejects_empty_and_bad_mode():
    with pytest.raises(ValueError):
        sample_paths(make_config(P=0), "integer", np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_paths(make_config(), "gaussian", np.random.default_rng(0))


# --------------------------------------------------- time-domain application

def test_identity_path_passes_signal_through():
    cfg = make_config(P=1)
    chan = single(cfg, 1.0, 0, 0.0)
    rng = np.random.default_rng(0)
    s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s_cp = np.concatenate([s[-cfg.cp_len:], s])
    assert np.allclose(time_domain_apply(s_cp, chan), s, atol=1e-12)


def test_unit_delay_is_cyclic_shift_with_plain_cp():
    cfg = make_config(P=1)
    chan = single(cfg, 1.0, 1, 0.0)
    s = np.exp(2j * np.pi * np.arange(16) / 7)
    s_cp = np.concatenate([s[-cfg.cp_len:], s])
    assert np.allclose(time_domain_apply(s_cp, chan), np.roll(s, 1), atol=1e-12)


def test_delay_beyond_prefix_rejected():
    cfg = make_config(P=1, ell_max=3, cp_len=3)
    chan = single(cfg, 1.0, 3, 0.0)
    with pytest.raises(ValueError, match="prefix"):
        time_domain_apply(np.ones(17, dtype=complex), chan)  # cp_len inferred as 1


def test_short_input_rejected():
    cfg = make_config(P=1)
    with pytest.raises(ValueError):
        time_domain_apply(np.ones(10), single(cfg, 1.0, 0, 0.0))


# ------------------------------------------------------ diagonals and applier

def test_channel_matrix_identity_path():
    cfg = make_config(P=1)
    chan = single(cfg, 1.0, 0, 0.0)
    S = np.random.default_rng(1).standard_normal((3, 16)) + 0j
    assert np.array_equal(apply_h(chan, OfdmSpec(16).wrap, S), S)
    expected = np.zeros((cfg.ell_max + 1, 16), dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(delay_diagonals(chan, OfdmSpec(16).wrap), expected)


def test_channel_matrix_pure_delay_is_shift_matrix():
    cfg = make_config(P=1)
    shift = oracle.channel_matrix(16, [(1.0, 1, 0.0)], oracle.zero_cycles)
    s = np.exp(2j * np.pi * np.arange(16) / 7)
    out = apply_h(single(cfg, 1.0, 1, 0.0), OfdmSpec(16).wrap, s)
    assert np.allclose(out, np.roll(s, 1), atol=1e-12)
    assert np.max(np.abs(out - shift @ s)) <= 1e-10


def test_channel_matrix_populates_only_path_diagonals():
    cfg = make_config(P=3)
    chan = ChannelRealization(
        config=cfg,
        paths=(
            PathParams(0.5, 0, 1.0),
            PathParams(-0.25j, 2, -2.0),
            PathParams(0.8, 3, 0.5),
        ),
    )
    d = delay_diagonals(chan, OfdmSpec(16).wrap)
    assert d.shape == (cfg.ell_max + 1, 16)
    assert np.all(np.abs(d[[0, 2, 3]]) > 1e-12) and not np.any(d[1])
    # the oracle's dense H has no nonzero off these diagonals, and the same entries on them
    H_ref = oracle.channel_matrix(16, paths_tuple(chan), oracle.zero_cycles)
    rows, cols = np.nonzero(np.abs(H_ref) > 1e-12)
    assert set(((rows - cols) % 16).tolist()) == {0, 2, 3}
    assert np.max(np.abs(d - oracle_diagonals(H_ref, cfg.ell_max))) <= 1e-10


def test_channel_matrix_frobenius_energy():
    cfg = make_config(P=3)
    chan = ChannelRealization(
        config=cfg,
        paths=(PathParams(0.3 + 0.1j, 0, 1.3), PathParams(0.9j, 1, -0.4), PathParams(-0.7, 3, 2.0)),
    )
    d = delay_diagonals(chan, OfdmSpec(16).wrap)
    expected = 16 * sum(abs(p.gain) ** 2 for p in chan.paths)
    assert abs(np.linalg.norm(d) ** 2 - expected) <= 1e-9 * expected


def test_delay_diagonals_equal_the_per_path_sum_bit_for_bit():
    # delay_diagonals must give the bits of summing every path's full taps
    # gain * (window * Doppler phase), window wrap[N - ell + n] on rows n < ell
    # and 1 elsewhere, in path order. P > ell_max + 1 makes delays repeat, and
    # a given c1 puts the AFDM prefix factors off the real line.
    rng = np.random.default_rng(15)
    for N in (16, 37, 64):
        for wrap in (OfdmSpec(N).wrap, AfdmSpec(N, 3.0 / (2 * N), 0.0).wrap, AfdmSpec(N, 0.0123, 0.011).wrap):
            for mode in ("integer", "fractional"):
                cfg = make_config(N=N, ell_max=3, f_max=2, P=7)
                chan = sample_paths(cfg, mode, rng)
                n = np.arange(N)
                want = np.zeros((cfg.ell_max + 1, N), dtype=complex)
                for p in chan.paths:
                    window = np.where(n < p.delay_norm, wrap[(N - p.delay_norm + n) % N], 1.0)
                    want[p.delay_norm] += p.gain * (window * doppler_phases(N, p.doppler_norm))
                assert delay_diagonals(chan, wrap).tobytes() == want.tobytes()


def test_single_path_operator_matches_factor_product():
    # the oracle forms Phi(ell) . D(f) . Pi^ell entry by entry
    c1 = 5.0 / 32.0
    direct = operator_matrix(single(make_config(P=1), 1.0, 3, -1.4), AfdmSpec(16, c1, 0.0).wrap)
    product = oracle.channel_matrix(16, [(1.0, 3, -1.4)], oracle.chirp_cp_cycles(c1, 16))
    assert np.max(np.abs(direct - product)) <= 1e-10


# --------------------------------------------------------- oracle equivalence

def _prepend(s, cp_len, cycles):
    n_prime = np.arange(-cp_len, 0)
    prefix = s[len(s) + n_prime] * np.exp(2j * np.pi * np.asarray(cycles(n_prime), dtype=float))
    return np.concatenate([prefix, s])


@pytest.mark.parametrize("trial", range(40))
def test_time_domain_equals_matrix_form_zero_phase(trial):
    rng = np.random.default_rng(100 + trial)
    cfg = make_config(N=16, ell_max=3, f_max=2, P=3)
    chan = sample_paths(cfg, "fractional", rng)
    s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lhs = time_domain_apply(_prepend(s, cfg.cp_len, oracle.zero_cycles), chan)
    rhs = apply_h(chan, OfdmSpec(16).wrap, s)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    ref = oracle.channel_matrix(16, paths_tuple(chan), oracle.zero_cycles) @ s
    assert np.max(np.abs(rhs - ref)) <= 1e-10


@pytest.mark.parametrize("trial", range(40))
def test_time_domain_equals_matrix_form_chirp_phase(trial):
    # tuned chirp rate: 2*N*c1 is an integer, so the prefix is chirp-periodic
    rng = np.random.default_rng(200 + trial)
    N, f_max, xi = 16, 1, 1
    c1 = (2 * (f_max + xi) + 1) / (2 * N)
    wrap = AfdmSpec(N, c1, 0.0).wrap
    cfg = make_config(N=N, ell_max=3, f_max=f_max, P=2)
    chan = sample_paths(cfg, "fractional", rng)
    s = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    lhs = time_domain_apply(_prepend(s, cfg.cp_len, oracle.chirp_cp_cycles(c1, N)), chan)
    rhs = apply_h(chan, wrap, s)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    ref = oracle.channel_matrix(N, paths_tuple(chan), oracle.chirp_cp_cycles(c1, N)) @ s
    assert np.max(np.abs(rhs - ref)) <= 1e-10


def test_matrix_form_matches_independent_reference():
    rng = np.random.default_rng(7)
    N = 12
    cfg = make_config(N=N, ell_max=3, f_max=1, P=3)
    chan = sample_paths(cfg, "fractional", rng)
    c1 = 5.0 / (2 * N)
    for wrap, cycles in (
        (OfdmSpec(N).wrap, oracle.zero_cycles),
        (AfdmSpec(N, c1, 0.0).wrap, oracle.chirp_cp_cycles(c1, N)),
    ):
        H_ref = oracle.channel_matrix(N, paths_tuple(chan), cycles)
        assert np.max(np.abs(operator_matrix(chan, wrap) - H_ref)) <= 1e-10
        d = delay_diagonals(chan, wrap)
        assert np.max(np.abs(d - oracle_diagonals(H_ref, cfg.ell_max))) <= 1e-10


def test_time_domain_matches_independent_reference():
    rng = np.random.default_rng(8)
    N = 10
    cfg = make_config(N=N, ell_max=2, f_max=2, P=2)
    chan = sample_paths(cfg, "fractional", rng)
    s = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    c1 = 0.35
    cycles = oracle.chirp_cp_cycles(c1, N)
    lhs = time_domain_apply(_prepend(s, cfg.cp_len, cycles), chan)
    assert np.max(np.abs(lhs - oracle.received(s, paths_tuple(chan), cfg.cp_len, cycles))) <= 1e-9


GIVEN_C1 = [(c1, N) for c1 in (0.0123, 0.35) for N in (36, 37, 64)]


@pytest.mark.parametrize("c1,N", GIVEN_C1)
def test_given_c1_operators_match_the_oracle(c1, N):
    # 2*N^2*c1 is not an integer: the prefix factors are no longer +-1, and
    # the operators must still use the transmitter's prefix rule
    rng = np.random.default_rng(N)
    cfg = make_config(N=N, ell_max=3, f_max=2, P=4)
    chan = sample_paths(cfg, "fractional", rng)
    c2 = 0.011
    spec = AfdmSpec(N, c1, c2, cp_len=cfg.cp_len)
    cycles = oracle.chirp_cp_cycles(c1, N)
    H_ref = oracle.channel_matrix(N, paths_tuple(chan), cycles)
    assert np.max(np.abs(operator_matrix(chan, spec.wrap) - H_ref)) <= 1e-10
    assert np.max(np.abs(delay_diagonals(chan, spec.wrap) - oracle_diagonals(H_ref, cfg.ell_max))) <= 1e-10
    G = effective_channel(spec, chan)
    G_ref = oracle.effective_matrix(*oracle.afdm_ops(N, c1, c2), paths_tuple(chan), cycles)
    assert np.max(np.abs(G - G_ref)) <= 1e-10
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    r = time_domain_apply(prepend_cp(spec, modulate(spec, x)), chan)
    assert np.max(np.abs(demodulate(spec, r) - G @ x)) <= 1e-10


C1_37, C2_37 = afdm_tune(3, 1, 1, 37)
REPEATED_DELAY_CASES = [
    (OfdmSpec(37, 3), oracle.ofdm_ops(37), oracle.zero_cycles),
    (AfdmSpec(37, C1_37, C2_37, xi=1, cp_len=3), oracle.afdm_ops(37, C1_37, C2_37),
     oracle.chirp_cp_cycles(C1_37, 37)),
]


@pytest.mark.parametrize("case", REPEATED_DELAY_CASES, ids=["ofdm-37", "afdm-37-xi1"])
def test_applier_sums_repeated_delays_drawn_out_of_order(case):
    # P > ell_max + 1 paths, drawn out of delay order, at odd N (the tuned AFDM
    # prefix factors are -1): the applier sums each delay's paths into one
    # diagonal, and must still agree with the sample route and the oracle
    spec, (tx, rx), cycles = case
    rng = np.random.default_rng(37)
    cfg = make_config(N=37, ell_max=3, f_max=1, P=6)
    chan = sample_paths(cfg, "fractional", rng)
    delays = [p.delay_norm for p in chan.paths]
    assert len(set(delays)) < len(delays) and delays != sorted(delays)
    S = rng.standard_normal((3, 37, 2)) @ np.array([1.0, 1.0j])
    got = apply_h(chan, spec.wrap, S)
    for s, row in zip(S, got):
        assert np.max(np.abs(row - time_domain_apply(prepend_cp(spec, s), chan))) <= 1e-12
    G_ref = oracle.effective_matrix(tx, rx, paths_tuple(chan), cycles)
    assert np.max(np.abs(effective_channel(spec, chan) - G_ref)) <= 1e-10
    # the sample route reads the caller's own prefix: random prefix samples
    # (not wrap * s), fractional Dopplers, repeated delays out of order, and a
    # prefix of 3 < ell_max = 4 samples that still covers every drawn delay
    rng = np.random.default_rng(3)
    chan = sample_paths(make_config(N=37, ell_max=4, f_max=1, P=6), "fractional", rng)
    delays = [p.delay_norm for p in chan.paths]
    assert max(delays) == 3 and len(set(delays)) < len(delays) and delays != sorted(delays)
    s_cp = rng.standard_normal((40, 2)) @ np.array([1.0, 1.0j])
    assert np.max(np.abs(s_cp[:3] - prepend_cp(spec, s_cp[3:])[:3])) > 0.1
    n = np.arange(37)
    want = sum(p.gain * np.exp(2j * np.pi * p.doppler_norm * n / 37) * s_cp[3 + n - p.delay_norm] for p in chan.paths)
    assert np.max(np.abs(time_domain_apply(s_cp, chan) - want)) <= 1e-12


# ------------------------------------------------------- continuous-domain views

def test_tvtf_at_origin_sums_gains():
    cfg = make_config(P=2)
    chan = ChannelRealization(
        config=cfg, paths=(PathParams(0.5 + 0.5j, 1, 1.0), PathParams(-0.25, 2, -1.5))
    )
    assert np.isclose(tvtf(chan, 0.0, 0.0), 0.25 + 0.5j)


def test_tvtf_single_path_constant_modulus():
    cfg = make_config(P=1)
    chan = single(cfg, 0.7j, 2, 1.3)
    t = np.linspace(0, 1e-5, 11)[:, None]
    f = np.linspace(-5e6, 5e6, 7)[None, :]
    assert np.allclose(np.abs(tvtf(chan, t, f)), 0.7, atol=1e-12)


def test_tvtf_is_transform_of_dvirf_points():
    cfg = make_config(P=3)
    chan = sample_paths(cfg, "fractional", np.random.default_rng(11))
    t, f = 3.1e-6, -1.7e6
    expected = sum(
        g * np.exp(2j * np.pi * nu * t) * np.exp(-2j * np.pi * tau * f)
        for tau, nu, g in dvirf_points(chan)
    )
    assert np.isclose(tvtf(chan, t, f), expected, atol=1e-12)


def test_dvirf_cardinality():
    empty = ChannelRealization(config=make_config(P=0), paths=())
    assert dvirf_points(empty) == []
    cfg = make_config(P=3)
    assert len(dvirf_points(sample_paths(cfg, "integer", np.random.default_rng(1)))) == 3


def test_dvirf_round_trip():
    cfg = make_config(P=3)
    chan = sample_paths(cfg, "fractional", np.random.default_rng(12))
    rebuilt = realization_from_points(cfg, dvirf_points(chan))
    for a, b in zip(chan.paths, rebuilt.paths):
        assert a.delay_norm == b.delay_norm
        assert np.isclose(a.doppler_norm, b.doppler_norm, atol=1e-12)
        assert np.isclose(a.gain, b.gain)


def test_realization_from_points_rejects_fractional_delay():
    cfg = make_config(P=1)
    with pytest.raises(ValueError, match="integer"):
        realization_from_points(cfg, [(1.5 / cfg.f_s, 0.0, 1.0)])


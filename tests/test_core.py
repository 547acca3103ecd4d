"""Entrywise contracts of the transform factors: the DFT and DAFT (through the
OFDM and AFDM modems), chirp and Doppler phases, the cyclic shift (through the
path operator) and each waveform's prefix vector, read through the path
operator's prefix window."""

import numpy as np
import pytest

from ddwave.channel import PathParams, _wrap_window, apply_paths, doppler_phases
from ddwave.modem import AfdmSpec, OfdmSpec, OtfsSpec, chirp_phases, demodulate, modulate


def dense(transform, spec):
    """Matrix of a block transform, one unit block per column."""
    return np.column_stack([transform(spec, e) for e in np.eye(spec.n)])


def dft_matrix(n):
    return dense(demodulate, OfdmSpec(n))


def daft_matrix(n, c1, c2):
    return dense(demodulate, AfdmSpec(n, c1, c2))


def shift(s, k):
    """Pure cyclic delay by k samples through the path operator."""
    return apply_paths(s, (PathParams(1.0, k % len(s), 0.0),), OfdmSpec(len(s)).wrap)


def test_dft_identity_case():
    assert np.allclose(dft_matrix(1), [[1.0]])


def test_dft_two_point():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    assert np.allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_eight_point_unitary_entrywise():
    F = dft_matrix(8)
    assert np.max(np.abs(F @ F.conj().T - np.eye(8))) <= 1e-12


def test_dft_matches_fft_oracle():
    for n in (3, 5, 16):
        F = dft_matrix(n)
        x = np.random.default_rng(n).standard_normal(n) + 1j
        assert np.allclose(F @ x, np.fft.fft(x, norm="ortho"), atol=1e-12)


def test_dft_rejects_zero_size():
    with pytest.raises(ValueError):
        modulate(OfdmSpec(0), np.zeros(0))
    with pytest.raises(ValueError):
        modulate(AfdmSpec(0, 0.1, 0.0), np.zeros(0))


def test_chirp_zero_rate_is_identity():
    for n in (1, 5, 9):
        assert np.allclose(chirp_phases(n, 0.0), np.ones(n))


def test_chirp_two_point_quarter_rate():
    # exp(-j*pi/2) = -j on the n=1 entry
    assert np.allclose(chirp_phases(2, 0.25), [1.0, -1.0j], atol=1e-15)


def test_chirp_unit_modulus():
    d = chirp_phases(16, 1.0 / 32.0)
    assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-12


def test_daft_zero_rates_reduce_to_dft():
    for n in (2, 7, 12):
        assert np.allclose(daft_matrix(n, 0.0, 0.0), dft_matrix(n), atol=1e-14)


def test_daft_unitary():
    A = daft_matrix(4, 1.0 / 8.0, 0.0)
    assert np.max(np.abs(A @ A.conj().T - np.eye(4))) <= 1e-12


def test_daft_round_trip():
    rng = np.random.default_rng(0)
    spec = AfdmSpec(32, 0.113, 0.007)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.linalg.norm(modulate(spec, demodulate(spec, x)) - x) <= 1e-10


def test_cyclic_shift_zero_is_identity():
    assert np.array_equal(shift(np.eye(3), 0), np.eye(3))


def test_cyclic_shift_three_point():
    # rows of the shifted identity are the operator's columns
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(shift(np.eye(3), 1).T, expected)


def test_cyclic_shift_acts_as_delay():
    s = np.arange(5, dtype=complex)
    assert np.array_equal(shift(s, 2), s[(np.arange(5) - 2) % 5])


def test_cyclic_shift_full_rotation():
    for n in (1, 4, 6):
        s = np.arange(n, dtype=complex) + 1j
        out = s
        for _ in range(n):
            out = shift(out, 1)
        assert np.array_equal(out, s)


def test_cyclic_shift_composition():
    s = np.arange(6, dtype=complex) - 2j
    for k, m in ((1, 2), (3, 4), (-2, 5)):
        assert np.array_equal(shift(shift(s, m), k), shift(s, k + m))


def test_doppler_zero_is_identity():
    assert np.allclose(doppler_phases(7, 0.0), np.ones(7))


def test_doppler_integer_one():
    assert np.allclose(doppler_phases(4, 1.0), [1.0, 1.0j, -1.0, -1.0j], atol=1e-15)


def test_doppler_fractional_half():
    expected = np.exp(1j * np.pi * np.array([0.0, 0.25, 0.5, 0.75]))
    assert np.allclose(doppler_phases(4, 0.5), expected, atol=1e-15)


def test_doppler_unit_modulus():
    d = doppler_phases(33, 1.7)
    assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-12


def test_cp_phase_zero_rule_is_identity():
    for wrap in (OfdmSpec(8).wrap, OtfsSpec(2, 4).wrap):
        for ell in (0, 2, 7):
            assert np.allclose(_wrap_window(wrap, ell), np.ones(8))


def test_cp_phase_chirp_integer_stride_collapses():
    # even N with 2*N*c1 integer: every entry reduces to 1
    wrap = AfdmSpec(8, 1.0 / 16.0, 0.0).wrap
    for ell in (1, 3):
        assert np.allclose(_wrap_window(wrap, ell), np.ones(8), atol=1e-12)


def test_cp_phase_chirp_literal_entries():
    # rows 0, 1 read wrap[6], wrap[7]: phi(-2) = (64-32)/32 = 1 -> 1; phi(-1) = (64-16)/32 = 1.5 -> -1
    d = _wrap_window(AfdmSpec(8, 1.0 / 32.0, 0.0).wrap, 2)
    expected = np.array([1, -1, 1, 1, 1, 1, 1, 1], dtype=complex)
    assert np.allclose(d, expected, atol=1e-12)


def test_cp_phase_unit_modulus():
    d = _wrap_window(AfdmSpec(16, 0.031, 0.0).wrap, 5)
    assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-12


def test_cp_phase_rejects_delay_at_or_past_n():
    s = np.ones(8, dtype=complex)
    for ell in (8, -1):
        with pytest.raises(ValueError, match="delays"):
            _wrap_window(OfdmSpec(8).wrap, ell)
        with pytest.raises(ValueError, match="delays"):
            apply_paths(s, (PathParams(1.0, ell, 0.0),), OfdmSpec(8).wrap)


def test_phase_rules_return_cycles():
    # entry N + n' is e^{j2pi phi(n')}: phi(-1) = 0.5 * (16 - 8) = 4 cycles
    assert OfdmSpec(4).wrap.tolist() == [1.0] * 4
    wrap = AfdmSpec(4, 0.5, 0.0).wrap
    assert wrap.shape == (4,)
    assert wrap[3] == np.exp(2j * np.pi * (0.5 * (16 - 8)))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 81, 256, 512])
def test_unitarity_dense(n):
    for M in (dft_matrix(n), daft_matrix(n, 0.37, 0.011)):
        assert np.max(np.abs(M @ M.conj().T - np.eye(n))) <= 1e-10


def test_unitarity_large_block_via_round_trip():
    # full product at 4096 would be memory-heavy; round trips bound the same
    # max-norm deviation direction by direction
    rng = np.random.default_rng(1)
    for spec in (OfdmSpec(4096), AfdmSpec(4096, 0.21, 3e-5)):
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        err = np.linalg.norm(modulate(spec, demodulate(spec, x)) - x) / np.linalg.norm(x)
        assert err <= 1e-10

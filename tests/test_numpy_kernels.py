"""The equalizer and guard tests, run again on the numpy kernel.

Where numpy's bundled OpenBLAS is found, both equalizers and the ZF guard's
certificate call LAPACK's banded routines (ddwave._lapack), and test_link
and test_properties exercise that path. The autouse fixture below hands
them the numpy kernel instead, so the same tests, collected here once more
under their own names, check the zgbsv and zpbtrf steps in numpy that run
on any other numpy build. A CLI test that counts the warnings of a run is
collected here too: on such a build the CLI cannot set BLAS's thread count,
and only a ZF ber run says so.
"""

import pytest

from ddwave import _lapack
from test_link import (  # noqa: F401 (collected here)
    test_a_frame_whose_trace_is_nan_or_inf_is_never_certified,
    test_an_exactly_singular_system_raises_linalgerror_and_ber_exits_3,
    test_banded_lapack_equalizers_match_the_dense_reference,
    test_batched_frames_match_the_per_frame_reference,
    test_ber_rows_equal_single_waveform_runs,
    test_ber_sweep_rows_equal_single_point_runs,
    test_ber_zero_on_flat_channel_noiseless,
    test_ber_zf_refuses_the_first_frame_in_frame_then_group_order,
    test_certified_agrees_with_the_dense_reference_at_the_edges,
    test_certified_answers_each_frame_alone_amid_a_failing_one,
    test_certified_clears_exactly_what_a_dense_cholesky_clears,
    test_certified_keeps_an_n1024_frame_far_below_a_dense_matrix,
    test_draw_and_solver_stacks_stay_within_the_budget,
    test_equalizers_match_dense_reference,
    test_equalizers_take_a_stack_of_blocks_row_by_row,
    test_given_c1_noiseless_is_error_free,
    test_identity_channel_equalizers_pass_through,
    test_lmmse_limits_to_zf,
    test_lmmse_of_a_frame_does_not_depend_on_its_stack,
    test_multi_column_reduction_matches_per_block_solves,
    test_no_result_depends_on_the_stack_sizes,
    test_stacked_zf_rows_equal_equalize_zf_bit_for_bit,
    test_zf_accepts_cond_2e11_through_the_svd_fallback,
    test_zf_guard_decides_as_the_svd_test,
    test_zf_guard_decides_each_frame_of_a_stack,
    test_zf_guards_each_frame_once_per_prefix_vector,
    test_zf_keeps_no_refusal_and_no_other_prefix_vectors_channel,
    test_zf_recovers_noiseless,
    test_zf_refuses_cond_2e13_and_ber_exits_3,
    test_zf_rejects_singular_channel,
    test_zf_solves_channel_that_dense_elimination_got_wrong,
)
from test_config_cli import test_effchan_fig3_warns_that_seed_has_no_effect  # noqa: F401
from test_properties import test_equalizers_match_dense_g_domain_solves  # noqa: F401


@pytest.fixture(autouse=True)
def numpy_kernels(monkeypatch):
    """Every test of this module runs on the kernel of a numpy without banded LAPACK."""
    monkeypatch.setattr(_lapack, "banded", _lapack._NumpyBanded)

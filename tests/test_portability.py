"""The pinned bits do not depend on the BLAS kernel.

Child processes rerun a fixed set of bit-pinned results, the solver
goldens and one pass of the capacity workload's capacity-general ops, under
other OpenBLAS kernels than the host picks, and must print the bytes of the
in-process run.  The set is gates.pinned_outputs.
"""

import pytest

from gates import PORTABILITY_KERNELS, check_pinned_outputs_match, kernel_skip_reason


@pytest.mark.parametrize("kernel", list(PORTABILITY_KERNELS))
def test_pinned_outputs_match_under_other_blas_kernels(kernel):
    reason = kernel_skip_reason(kernel)
    if reason:
        pytest.skip(reason)
    check_pinned_outputs_match(kernel)

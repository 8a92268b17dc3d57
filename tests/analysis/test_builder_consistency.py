"""Cross-checks between the two faces of each benchmark.

Every benchmark has a functional implementation and a trace builder; the
trace's accounting must agree with the analytic operation counts the
paper uses.  These checks pin the agreement so drift in either face is a
test failure, not a silently wrong Mflops column.
"""

import pytest

from repro.kernels import copy as kcopy
from repro.kernels import ia, linpack, nas, rfft, stream, vfft, xpose
from repro.kernels.fftpack import real_fft_flops
from repro.machine.compiled import SORTED_INTRINSICS, compile_trace


def _raw_flops(trace) -> float:
    """The trace's genuine adds/multiplies, as its lowering totals them."""
    return compile_trace(trace).totals[0][0]


class TestMembenchWords:
    """COPY/IA/XPOSE move exactly the words their definitions say."""

    def test_copy_moves_two_words_per_element(self):
        n, m = 65536, 16
        assert kcopy.build_trace(n, m).words_moved == 2 * n * m

    def test_ia_moves_the_same_words_half_gathered(self):
        n, m = 65536, 16
        trace = ia.build_trace(n, m)
        assert trace.words_moved == 2 * n * m
        columns = compile_trace(trace).vector
        gathered = (columns.indexed_words * columns.count).sum()
        assert gathered / trace.words_moved == pytest.approx(0.5)

    def test_xpose_moves_two_words_per_matrix_element(self):
        n, m = 512, 512
        # N·M executions of an N-long load/store loop: 2·N²·M words.
        assert xpose.build_trace(n, m).words_moved == 2 * n * n * m


class TestStream:
    @pytest.mark.parametrize("kernel", stream.STREAM_KERNELS, ids=lambda k: k.name)
    def test_trace_matches_the_kernel_definition(self, kernel):
        op = stream.build_trace(kernel.name).ops[0]
        assert op.flops_per_element == kernel.flops_per_element
        assert op.loads_per_element == kernel.loads_per_element
        assert op.stores_per_element == kernel.stores_per_element
        assert op.load_stride == 1 and op.store_stride == 1


class TestLinpack:
    def test_trace_flops_match_the_official_count(self):
        n = 1000
        trace = linpack.build_trace(n)
        # The official 2n³/3 + 2n² count; the trace's exact loop-by-loop
        # sum differs only in lower-order terms.
        assert _raw_flops(trace) == pytest.approx(linpack.linpack_flops(n), rel=0.02)


class TestFFT:
    def test_rfft_trace_flops_match_the_pass_costs(self):
        n, m = 1024, 64
        trace = rfft.build_trace(n, m)
        assert _raw_flops(trace) == pytest.approx(m * real_fft_flops(n), rel=1e-9)

    def test_vfft_trace_flops_match_the_pass_costs(self):
        n, m = 1024, 512
        trace = vfft.build_trace(n, m)
        assert _raw_flops(trace) == pytest.approx(m * real_fft_flops(n), rel=1e-9)

    def test_both_orientations_do_the_same_arithmetic(self):
        # RFFT vs VFFT is a loop-ordering change, not an algorithm change.
        n, m = 256, 100
        assert _raw_flops(rfft.build_trace(n, m)) == pytest.approx(
            _raw_flops(vfft.build_trace(n, m)), rel=1e-9
        )


class TestNasEP:
    def test_ep_trace_costs_per_pair(self):
        pairs = 1 << 20
        trace = nas.ep_trace(pairs)
        assert _raw_flops(trace) / pairs == pytest.approx(12.0)
        columns = compile_trace(trace).vector
        calls = (columns.intrinsics * columns.elements[:, None]).sum(axis=0)
        intrinsics = {
            name: total / pairs for name, total in zip(SORTED_INTRINSICS, calls) if total
        }
        # log+sqrt on every accepted pair (acceptance rate π/4 ≈ 0.79).
        assert intrinsics == {
            "log": pytest.approx(0.79, abs=0.01),
            "sqrt": pytest.approx(0.79, abs=0.01),
        }

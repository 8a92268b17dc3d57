"""Ablations of the design choices DESIGN.md section 5 calls out.

Each test flips one machine-model or workload parameter and verifies the
direction and rough size of the effect — the evidence that the model's
shape conclusions are driven by the mechanisms the paper names, not by
accident.
"""

import pytest

from repro.apps.ccm2 import costmodel as ccm2_cost
from repro.apps.mom import costmodel as mom_cost
from repro.apps.pop import costmodel as pop_cost
from repro.kernels import ia, radabs, vfft, xpose
from repro.machine.presets import sx4_node, sx4_processor


def test_clock_8ns_gives_the_papers_15_percent():
    """'An additional 15% performance improvement can be realized ...
    running on a system with an 8.0 ns clock.'"""
    bench_rate = radabs.model_mflops(sx4_processor(9.2))
    prod_rate = radabs.model_mflops(sx4_processor(8.0))
    assert prod_rate / bench_rate == pytest.approx(1.15, rel=1e-6)


def test_bank_count_drives_xpose_degradation():
    """Fewer banks make strided (XPOSE) access worse, COPY untouched."""
    rates = {}
    for banks in (64, 1024):
        proc = sx4_processor()
        proc.memory.banks = banks
        rates[banks] = xpose.model_curve(proc).asymptote_mb_per_s
    assert rates[1024] >= rates[64]


def test_bank_busy_time_drives_gather_rate():
    """'List vector access benefits from the very short bank cycle time':
    lengthening the bank busy time must hurt IA."""
    rates = {}
    for busy in (2.0, 16.0):
        proc = sx4_processor()
        proc.memory.bank_busy_cycles = busy
        rates[busy] = ia.model_curve(proc).asymptote_mb_per_s
    assert rates[2.0] > rates[16.0]


def test_vector_startup_sets_the_short_vector_knee():
    """Halving startup helps short vectors far more than long ones."""
    rates = {}
    for startup in (20.0, 80.0):
        proc = sx4_processor()
        proc.vector.startup_cycles = startup
        rates[startup] = (
            vfft.model_mflops(proc, 256, 5),
            vfft.model_mflops(proc, 256, 500),
        )
    short_gain = rates[20.0][0] / rates[80.0][0]
    long_gain = rates[20.0][1] / rates[80.0][1]
    assert short_gain > 1.5 * long_gain


def test_slt_gather_share_drives_ensemble_degradation():
    """Removing the irregular traffic (gathers + strided transposes)
    collapses the Table 6 degradation toward the unit-stride floor."""
    full = ccm2_cost.ensemble_degradation(sx4_node())["degradation"]
    calm_node = sx4_node()
    calm_node.processor.memory.contention_slope = 0.0
    calm = ccm2_cost.ensemble_degradation(calm_node)["degradation"]
    assert full > 1.5 * calm


def test_mom_diagnostic_interval_ablation():
    """Printing diagnostics every step vs never: the serial print is a
    real part of MOM's scalability ceiling."""
    node = sx4_node()
    with_diag = mom_cost.parallel_step(node, cpus=32, with_diagnostics=True)
    without = mom_cost.parallel_step(node, cpus=32, with_diagnostics=False)
    assert with_diag.seconds > 1.1 * without.seconds


def test_mom_sor_decomposition_ablation(monkeypatch):
    """Turning off the block-Jacobi iteration growth (exponent 0) makes
    MOM scale much better — the solver is the other ceiling."""
    base = mom_cost.speedup_table(sx4_node())[32][1]
    monkeypatch.setattr(mom_cost, "SOR_DECOMPOSITION_EXPONENT", 0.0)
    flat = mom_cost.speedup_table(sx4_node())[32][1]
    assert flat > base + 2.0


def test_pop_cshift_vectorisation_ablation():
    """The pre-release-compiler story: vectorising CSHIFT buys >1.3x."""
    scalar = pop_cost.model_mflops(cshift_vectorized=False)
    vector = pop_cost.model_mflops(cshift_vectorized=True)
    assert vector > 1.3 * scalar


def test_multinode_ccm2_extension():
    """Beyond the paper: CCM2 across IXS-connected nodes.  Large problems
    keep scaling; small ones hit the all-to-all latency floor."""
    curves = {
        res: ccm2_cost.multinode_scaling(res=res, node_counts=(1, 4, 16))
        for res in ("T42L18", "T170L18")
    }
    eff = {res: dict(pts)[16] / (16 * dict(pts)[1]) for res, pts in curves.items()}
    assert eff["T42L18"] < eff["T170L18"]

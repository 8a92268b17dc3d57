"""Tests for degraded machines and their costing parity with the per-op oracle."""

import pytest

from repro.analysis.traces import build_registered_trace
from repro.faults.degraded import (
    IXS_LANES_PER_CHANNEL,
    NODE_IOPS,
    PRESETS,
    DegradedMachine,
    Degradation,
    degrade_crossbar,
    degrade_iop,
    degrade_processor,
    standard_degradations,
)
from repro.machine.iop import IOProcessor
from repro.machine.ixs import InternodeCrossbar
from repro.machine.presets import sx4_processor
from tests.oracle import assert_matches_oracle


class TestDegradation:
    def test_baseline_is_baseline(self):
        assert Degradation().is_baseline
        assert not Degradation(offline_banks=1).is_baseline

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Degradation(offline_pipes=-1)

    def test_one_lane_and_one_iop_must_survive(self):
        with pytest.raises(ValueError):
            Degradation(offline_ixs_lanes=IXS_LANES_PER_CHANNEL)
        with pytest.raises(ValueError):
            Degradation(offline_iops=NODE_IOPS)

    def test_to_dict_round_trips_the_fields(self):
        degradation = Degradation(name="x", offline_banks=3)
        assert degradation.to_dict()["offline_banks"] == 3


class TestDegradeProcessor:
    def test_baseline_returns_the_same_instance(self):
        cpu = sx4_processor()
        assert degrade_processor(cpu, Degradation()) is cpu

    def test_half_pipes_halves_throughput(self):
        cpu = sx4_processor()
        half = Degradation(name="half-pipes", offline_pipes=cpu.vector.pipes // 2)
        degraded = degrade_processor(cpu, half)
        assert degraded.vector.pipes == cpu.vector.pipes // 2
        assert "[half-pipes]" in degraded.name
        # Intrinsic per-element rates stretch by the surviving-pipe ratio.
        for name, rate in cpu.vector.intrinsic_cycles_per_element.items():
            assert degraded.vector.intrinsic_cycles_per_element[name] == 2 * rate

    def test_offline_banks_shrink_the_interleave(self):
        cpu = sx4_processor()
        degraded = degrade_processor(
            cpu, Degradation(name="hb", offline_banks=cpu.memory.banks // 2)
        )
        assert degraded.memory.banks == cpu.memory.banks // 2

    def test_scalar_side_untouched(self):
        cpu = sx4_processor()
        degraded = degrade_processor(
            cpu, Degradation(name="hp", offline_pipes=cpu.vector.pipes // 2)
        )
        assert degraded.scalar == cpu.scalar

    def test_cannot_offline_every_pipe(self):
        cpu = sx4_processor()
        with pytest.raises(ValueError, match="cannot offline"):
            degrade_processor(cpu, Degradation(offline_pipes=cpu.vector.pipes))

    def test_degradation_slows_a_real_trace(self):
        # radabs is intrinsic-heavy, so it feels the stretched
        # per-element rates directly (copy is memory-bound and would
        # hide a pipe degradation).
        trace = build_registered_trace("radabs")
        baseline = sx4_processor().execute(trace)
        machine = DegradedMachine(
            "sx4", Degradation(name="half-pipes", offline_pipes=4)
        )
        assert machine.processor().execute(trace).cycles > baseline.cycles


class TestDegradeInterconnect:
    def test_crossbar_lanes_scale_channel_bandwidth(self):
        ixs = InternodeCrossbar()
        degraded = degrade_crossbar(ixs, Degradation(offline_ixs_lanes=1))
        assert degraded.channel_bytes_per_s == pytest.approx(
            ixs.channel_bytes_per_s * 3 / 4
        )

    def test_iop_bandwidth_scales_with_survivors(self):
        iop = IOProcessor()
        degraded = degrade_iop(iop, Degradation(offline_iops=2))
        assert degraded.bandwidth_bytes_per_s == pytest.approx(
            iop.bandwidth_bytes_per_s / 2
        )

    def test_noop_degradations_return_the_instance(self):
        ixs, iop = InternodeCrossbar(), IOProcessor()
        assert degrade_crossbar(ixs, Degradation()) is ixs
        assert degrade_iop(iop, Degradation()) is iop


class TestDegradedMachine:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            DegradedMachine("sx5")

    def test_standard_degradations_start_at_baseline(self):
        for preset in PRESETS:
            sweep = standard_degradations(preset)
            assert sweep[0].is_baseline
            assert len({d.name for d in sweep}) == len(sweep)

    def test_costing_engines_agree_bit_exactly_when_degraded(self):
        """The tentpole parity claim, in miniature (the chaos harness
        sweeps the full presets x degradations x traces grid)."""
        trace = build_registered_trace("stream")
        for degradation in standard_degradations("sx4"):
            cpu = DegradedMachine("sx4", degradation).processor()
            assert_matches_oracle(cpu.execute(trace), cpu, trace)

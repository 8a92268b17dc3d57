"""Performance-model simulator of the NEC SX-4 and the paper's comparators.

The paper's measurements were taken on real 1996 hardware (an SX-4/32 with
a 9.2 ns clock, plus a SUN SPARC20, IBM RS6000/590, Cray J90 and Cray Y-MP
for Table 1).  This package substitutes a calibrated analytic performance
model: benchmarks describe their work as a :class:`~repro.machine.operations.Trace`
of vector / scalar / memory operation descriptors, and a
:class:`~repro.machine.processor.Processor` (or a multi-CPU
:class:`~repro.machine.node.Node`) turns the trace into cycles, seconds,
and sustained Mflops / bandwidth numbers.

Model structure mirrors the SX-4 component list in Section 2 of the paper:

========================  =======================================
Paper component           Model module
========================  =======================================
Central Processor Unit    :mod:`~repro.machine.vector_unit`,
                          :mod:`~repro.machine.scalar_unit`
Main Memory Unit          :mod:`~repro.machine.memory`
Extended Memory Unit      :mod:`~repro.machine.xmu`
Input Output Processor    :mod:`~repro.machine.iop`
Internode Crossbar (IXS)  :mod:`~repro.machine.ixs`
========================  =======================================

Calibrated machine instances live in :mod:`~repro.machine.presets`.
"""

from repro.machine.clock import Clock
from repro.machine.compiled import CompiledTrace, compile_trace
from repro.machine.operations import (
    INTRINSIC_FLOP_EQUIV,
    INTRINSICS,
    ScalarOp,
    Trace,
    VectorOp,
)
from repro.machine.processor import ExecutionReport, Processor
from repro.machine.suitebatch import SuiteColumns
from repro.machine.node import Node, ParallelReport
from repro.machine.memory import BankedMemory
from repro.machine.vector_unit import VectorUnit
from repro.machine.scalar_unit import ScalarUnit
from repro.machine.cache import CacheModel
from repro.machine.xmu import ExtendedMemoryUnit
from repro.machine.iop import DiskArray, IOProcessor
from repro.machine.ixs import InternodeCrossbar, MultiNodeSystem
from repro.machine import floatformats, isa, presets
from repro.machine.commregs import Barrier, CommunicationRegisters, SpinLock
from repro.machine.specs import MachineSpecs, sx4_32_benchmark_specs

__all__ = [
    "Clock",
    "VectorOp",
    "ScalarOp",
    "Trace",
    "INTRINSICS",
    "INTRINSIC_FLOP_EQUIV",
    "Processor",
    "ExecutionReport",
    "CompiledTrace",
    "compile_trace",
    "SuiteColumns",
    "Node",
    "ParallelReport",
    "BankedMemory",
    "VectorUnit",
    "ScalarUnit",
    "CacheModel",
    "ExtendedMemoryUnit",
    "IOProcessor",
    "DiskArray",
    "InternodeCrossbar",
    "MultiNodeSystem",
    "presets",
    "floatformats",
    "isa",
    "CommunicationRegisters",
    "SpinLock",
    "Barrier",
    "MachineSpecs",
    "sx4_32_benchmark_specs",
]

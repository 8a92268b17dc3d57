"""Machine-model cost of a CCM2 timestep (Figure 8, Tables 5 and 6).

Each phase of the CCM2 step is priced as machine-model operation traces
whose vector lengths, strides and intrinsic mixes follow the code
structure Section 4.7.1 describes:

==================  ========================================================
Phase               Trace structure
==================  ========================================================
Legendre transform  per m-block, inner vectors over the spectral index
                    (average length ≈ T/2 — the reason "the SX-4 runs most
                    efficiently on long vector problems": T42's vectors are
                    ~22 elements, T170's ~86)
Longitude FFTs      FFTPACK passes vectorised across latitudes
Column physics      the RADABS kernel on its radiation cycle plus the cheap
                    every-step parameterisations, vector length = nlon
SLT transport       16-point bicubic gathers (indirect addressing)
Data transposes     strided reshapes between column-, longitude- and
                    spectral-major layouts
Grid-point algebra  the low-intensity nonlinear products and updates
Spectral algebra    semi-implicit/vertical coupling, vectorised over nspec
==================  ========================================================

Parallelisation follows CCM2's multitasking: spectral phases distribute
over the T+1 Fourier wavenumbers (whose block imbalance is what makes T42
scale worst), grid phases over latitude rows with a physics load-imbalance
factor (day/night radiation), plus per-step synchronisation regions.

Calibration anchors: T170L18 on 32 CPUs sustains ≈24 Cray-equivalent
Gflops (Figure 8); the one-year T42/T63 runs of Table 5; the 1.89%
ensemble degradation of Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.ccm2.resolutions import Resolution, resolution
from repro.kernels import fftpack, radabs
from repro.machine.ixs import MultiNodeSystem
from repro.machine.node import Node, ParallelReport, block_imbalance, block_shares
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_node
from repro.units import GIGA

__all__ = [
    "CCM2Cost",
    "step_trace",
    "parallel_step",
    "figure8_point",
    "figure8_curves",
    "year_simulation_seconds",
    "ensemble_degradation",
    "history_bytes_per_day",
    "multinode_gflops",
    "multinode_scaling",
]

#: Prognostic fields passing through the spectral transforms each step
#: (vorticity, divergence, temperature/geopotential, moisture-adjacent RHS).
TRANSFORMED_FIELDS = 4
#: Full radiation (RADABS) runs every this many dynamics steps.
RADIATION_INTERVAL = 3
#: Parallel regions (fork/join boundaries) per timestep.
REGIONS_PER_STEP = 12.0
#: Low-intensity grid-point loops per level per step (nonlinear products,
#: filters, diagnostics updates).
GRID_LOOPS = 30
#: Whole-state layout transposes per step (column- ↔ lon- ↔ spectral-major
#: reshapes around physics, FFT, SLT and history).
TRANSPOSES = 8
#: History fields written per model day (Table 5's ~15 GB/year at T63).
HISTORY_FIELDS = 15
#: Physics load-imbalance growth per CPU (day/night radiation asymmetry).
PHYSICS_IMBALANCE_PER_CPU = 0.005


@dataclass(frozen=True)
class CCM2Cost:
    """Phase traces for one timestep at one resolution."""

    res: Resolution
    spectral: Trace  # distributes over Fourier wavenumbers
    grid: Trace  # distributes over latitude rows
    serial: Trace  # timestep control, not parallelised

    @property
    def total(self) -> Trace:
        total = self.spectral + self.grid + self.serial
        total.name = f"CCM2 {self.res.name} step"
        return total


def _legendre_trace(res: Resolution) -> Trace:
    """Forward+inverse Legendre transforms for all fields and levels."""
    avg_len = max(2, (res.trunc + 2) // 2)
    count = 2 * 2 * TRANSFORMED_FIELDS * res.nlev * (res.nlat // 2) * (res.trunc + 1)
    return Trace(
        [
            VectorOp(
                "legendre transform",
                length=avg_len,
                count=float(count),
                flops_per_element=8.0,  # complex multiply-add
                # Coefficients, basis values and running accumulators:
                # slightly memory-bound, consistent with "many NCAR
                # modeling codes are memory bandwidth limited" (Sec. 4.2).
                loads_per_element=4.5,
                stores_per_element=0.5,
            )
        ],
        name="legendre",
    )


def _fft_trace(res: Resolution) -> Trace:
    """Longitude FFTs, vectorised across latitudes (both directions)."""
    ops = []
    for factor, l1, ido in fftpack.pass_structure(res.nlon):
        ops.append(
            VectorOp(
                f"fft pass r{factor}",
                length=res.nlat,
                count=float(l1 * ido * factor * 2 * TRANSFORMED_FIELDS * res.nlev),
                flops_per_element=fftpack.PASS_FLOPS_PER_POINT[factor],
                loads_per_element=1.0,
                stores_per_element=1.0,
            )
        )
    return Trace(ops, name="fft")


def _spectral_algebra_trace(res: Resolution) -> Trace:
    """Semi-implicit solve and local spectral-space algebra."""
    return Trace(
        [
            VectorOp(
                "spectral algebra",
                length=res.nspec,
                count=float(res.nlev * res.nlev * 2),
                flops_per_element=2.0,
                loads_per_element=1.5,
                stores_per_element=0.5,
            )
        ],
        name="spectral algebra",
    )


def _physics_trace(res: Resolution) -> Trace:
    """RADABS on its radiation cycle plus the cheap every-step physics."""
    pairs = res.nlev * (res.nlev - 1) // 2 + res.nlev
    return Trace(
        [
            VectorOp.make(
                "radabs",
                res.nlon,
                count=float(pairs * res.nlat / RADIATION_INTERVAL),
                flops_per_element=radabs.RAW_FLOPS_PER_ELEMENT,
                loads_per_element=6.0,
                stores_per_element=2.0,
                gather_loads_per_element=radabs.GATHERED_LOADS_PER_ELEMENT,
                intrinsics=radabs.INTRINSIC_MIX,
            ),
            VectorOp.make(
                "fast physics",
                res.nlon,
                count=float(res.nlat * res.nlev),
                flops_per_element=60.0,
                loads_per_element=6.0,
                stores_per_element=3.0,
                intrinsics={"exp": 0.2, "sqrt": 0.1},
            ),
        ],
        name="physics",
    )


def _slt_trace(res: Resolution) -> Trace:
    """Shape-preserving SLT: 16-point bicubic gathers per level."""
    return Trace(
        [
            VectorOp(
                "slt gather",
                length=res.nlon,
                count=float(res.nlat * res.nlev),
                flops_per_element=30.0,
                loads_per_element=2.0,
                stores_per_element=1.0,
                gather_loads_per_element=16.0,
            )
        ],
        name="slt",
    )


def _transpose_trace(res: Resolution) -> Trace:
    """Layout transposes between column-, lon- and spectral-major phases."""
    return Trace(
        [
            VectorOp(
                "state transpose",
                length=res.nlon,
                count=float(TRANSPOSES * res.nlev * res.nlat),
                loads_per_element=1.0,
                stores_per_element=1.0,
                load_stride=res.nlat,
            )
        ],
        name="transpose",
    )


def _grid_algebra_trace(res: Resolution) -> Trace:
    """Low-intensity grid loops: nonlinear products, filters, updates."""
    return Trace(
        [
            VectorOp(
                "grid algebra",
                length=res.nlon,
                count=float(GRID_LOOPS * res.nlev * res.nlat),
                flops_per_element=2.0,
                loads_per_element=2.5,
                stores_per_element=1.0,
            )
        ],
        name="grid algebra",
    )


def step_trace(res: Resolution | str) -> CCM2Cost:
    """All phase traces for one CCM2 timestep at a Table 4 resolution."""
    if isinstance(res, str):
        res = resolution(res)
    spectral = _legendre_trace(res) + _spectral_algebra_trace(res)
    grid = (
        _fft_trace(res)
        + _physics_trace(res)
        + _slt_trace(res)
        + _transpose_trace(res)
        + _grid_algebra_trace(res)
    )
    serial = Trace(
        [ScalarOp("timestep control", instructions=20_000.0, memory_words=2_000.0)],
        name="serial",
    )
    return CCM2Cost(res=res, spectral=spectral, grid=grid, serial=serial)


def _physics_imbalance(cpus: int) -> float:
    return 1.0 + PHYSICS_IMBALANCE_PER_CPU * cpus


def parallel_step(
    node: Node,
    res: Resolution | str,
    cpus: int,
    other_active_cpus: int = 0,
) -> ParallelReport:
    """One timestep on ``cpus`` processors of an SX-4 node.

    Spectral work deals the (T+1) Fourier wavenumbers to the CPUs in
    blocks (T42's 43 wavenumbers on 32 CPUs leave half the machine with
    double shares — the main reason small resolutions scale worst); grid
    work deals latitude rows, with the busiest CPU additionally carrying
    the physics day/night imbalance.  CPUs with equal shares run one
    trace, so a step builds and costs at most four: the busiest CPU's and
    one per ceiling/floor share pair among the rest.
    """
    cost = step_trace(res)
    if cpus < 1:
        raise ValueError(f"need at least one CPU, got {cpus}")
    spec_shares = block_shares(cost.res.trunc + 1, cpus)
    grid_shares = block_shares(cost.res.nlat, cpus)
    imbalance = _physics_imbalance(cpus)
    shares = [
        (spec_shares[i], grid_shares[i] * (imbalance if i == 0 else 1.0))
        for i in range(cpus)
    ]
    # One trace per distinct share, handed to every CPU with that share:
    # the node model costs a shared trace once.
    by_share = {
        share: cost.spectral.scaled(share[0]) + cost.grid.scaled(share[1])
        for share in dict.fromkeys(shares)
    }
    name = f"CCM2 {cost.res.name} step/{cpus}cpu"
    return node.run_parallel(
        [by_share[share] for share in shares],
        serial=cost.serial,
        regions=REGIONS_PER_STEP,
        other_active_cpus=other_active_cpus,
        trace_name=name,
    )


def figure8_point(node: Node, res: Resolution | str, cpus: int) -> float:
    """Sustained Cray-equivalent Gflops of CCM2 (one Figure 8 point)."""
    report = parallel_step(node, res, cpus)
    return report.flop_equivalents / report.seconds / GIGA


def figure8_curves(
    node: Node | None = None,
    resolutions: tuple[str, ...] = ("T42L18", "T106L18", "T170L18"),
    cpu_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> dict[str, list[tuple[int, float]]]:
    """Figure 8: Gflops vs processor count for three resolutions."""
    node = node or sx4_node()
    return {
        name: [(p, figure8_point(node, name, p)) for p in cpu_counts]
        for name in resolutions
    }


def history_bytes_per_day(res: Resolution | str) -> float:
    """Daily-average history volume (the Table 5 runs wrote daily stats)."""
    if isinstance(res, str):
        res = resolution(res)
    return float(HISTORY_FIELDS * res.columns * res.nlev * 8)


def year_simulation_seconds(
    node: Node | None = None,
    res: Resolution | str = "T42L18",
    cpus: int = 32,
    days: float = 365.0,
    disk_rate_bytes_per_s: float = 60e6,
) -> dict[str, float]:
    """Wall-clock breakdown of a one-year climate simulation (Table 5).

    History writes are synchronous once per model day at the given
    effective disk rate (conventional striped disks, Section 4.5.1 class
    hardware), plus a monthly restart dump of the full state.
    """
    node = node or sx4_node()
    if isinstance(res, str):
        res = resolution(res)
    if days <= 0:
        raise ValueError(f"day count must be positive, got {days}")
    step = parallel_step(node, res, cpus)
    steps = res.steps_for_days(days)
    compute = step.seconds * steps
    daily = history_bytes_per_day(res)
    restart = 8 * res.columns * res.nlev * 8  # 4 fields x 2 time levels
    io_bytes = daily * days + restart * (days / 30.0)
    io_seconds = io_bytes / disk_rate_bytes_per_s
    return {
        "steps": float(steps),
        "compute_seconds": compute,
        "io_bytes": io_bytes,
        "io_seconds": io_seconds,
        "total_seconds": compute + io_seconds,
    }


def multinode_gflops(
    system: MultiNodeSystem, res: Resolution | str, nodes: int | None = None
) -> float:
    """CCM2 across IXS-connected nodes — the Section 2.5 extension study.

    The paper ran CCM2 inside one node; the IXS exists precisely to grow
    beyond it ("very tight coupling between nodes enabling a single
    system image").  The model: latitudes are dealt across nodes, each
    node runs its share on its 32 CPUs, and the spectral transform's
    latitude↔wavenumber data transposition crosses the IXS twice per
    step (forward and inverse), each node streaming its slice of the
    transformed state through its 8 GB/s channels.  Small resolutions
    saturate quickly — the transpose volume shrinks like 1/nodes but the
    per-exchange latency and barrier do not.
    """
    if isinstance(res, str):
        res = resolution(res)
    nodes = system.node_count if nodes is None else nodes
    if not 1 <= nodes <= system.node_count:
        raise ValueError(f"nodes must be in [1, {system.node_count}], got {nodes}")
    one_node = parallel_step(system.node, res, system.node.cpu_count)
    compute = one_node.seconds * block_imbalance(res.nlat, nodes) / nodes
    state_bytes = TRANSFORMED_FIELDS * res.nlev * res.columns * 8.0
    if nodes > 1:
        sub = MultiNodeSystem(node=system.node, node_count=nodes, ixs=system.ixs)
        # Forward and inverse transpositions, each a personalised
        # all-to-all of this node's share of the state.
        exchange = 2.0 * sub.alltoall_seconds(state_bytes / nodes)
    else:
        exchange = 0.0
    total_flops = one_node.flop_equivalents
    return total_flops / (compute + exchange) / GIGA


def multinode_scaling(
    system: MultiNodeSystem | None = None,
    res: Resolution | str = "T170L18",
    node_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> list[tuple[int, float]]:
    """Gflops vs node count for one resolution (an ablation target)."""
    system = system or MultiNodeSystem(node=sx4_node(), node_count=16)
    return [(n, multinode_gflops(system, res, n)) for n in node_counts]


def ensemble_degradation(
    node: Node | None = None,
    res: Resolution | str = "T42L18",
    cpus_per_job: int = 4,
    jobs: int = 8,
) -> dict[str, float]:
    """The Table 6 ensemble test: one 4-CPU CCM2 job alone vs eight
    concurrent 4-CPU copies filling the 32-CPU node.

    Returns the single-job step time, the loaded step time, and the
    relative degradation (paper: 1.89%).
    """
    node = node or sx4_node()
    if cpus_per_job * jobs > node.cpu_count:
        raise ValueError(
            f"{jobs} jobs x {cpus_per_job} CPUs exceed the {node.cpu_count}-CPU node"
        )
    alone = parallel_step(node, res, cpus_per_job, other_active_cpus=0)
    loaded = parallel_step(
        node, res, cpus_per_job, other_active_cpus=cpus_per_job * (jobs - 1)
    )
    return {
        "single_seconds": alone.seconds,
        "loaded_seconds": loaded.seconds,
        "degradation": loaded.seconds / alone.seconds - 1.0,
    }

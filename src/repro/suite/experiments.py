"""One function per paper table/figure: regenerate, compare, shape-check.

Each ``table*`` / ``figure*`` / ``sec*`` function builds the experiment's
rows or series from the library, attaches the paper's stated reference
values, and records :class:`~repro.suite.results.ShapeCheck` verdicts for
the claims the paper's text makes about that result.  ``EXPERIMENTS`` is
the registry the runner and the benchmark harness iterate.
"""

from __future__ import annotations

from typing import Callable

from repro.apps.ccm2 import costmodel as ccm2_cost
from repro.apps.mom import costmodel as mom_cost
from repro.apps.pop import costmodel as pop_cost
from repro.kernels import copy as kcopy
from repro.kernels import (
    elefunt,
    hint,
    ia,
    linpack,
    nas,
    paranoia,
    radabs,
    rfft,
    stream,
    vfft,
    xpose,
)
from repro.machine import floatformats
from repro.machine.ixs import MultiNodeSystem
from repro.machine.node import Node
from repro.machine.presets import sx4_node, sx4_processor, table1_machines
from repro.machine.processor import Processor
from repro.machine.specs import sx4_32_benchmark_specs
from repro.scheduler import prodload
from repro.iosim import hippi, history, network
from repro.suite.results import Experiment
from repro.units import GB, GIGA, MB, MEGA, TB, fmt_time

__all__ = [
    "table1_hint_vs_radabs",
    "table2_specs",
    "table3_elefunt",
    "table4_resolutions",
    "table5_one_year",
    "table6_ensemble",
    "table7_mom",
    "figure5_memory_bandwidth",
    "figure6_rfft",
    "figure7_vfft",
    "figure8_ccm2_scaling",
    "sec41_correctness",
    "sec44_radabs",
    "sec45_io",
    "sec46_prodload",
    "sec473_pop",
    "sec2_architecture",
    "sec3_other_benchmarks",
    "EXPERIMENTS",
]


def _sx4() -> Processor:
    return sx4_processor()


def _node() -> Node:
    return sx4_node()


# ---------------------------------------------------------------- Table 1
PAPER_TABLE1 = {
    "SUN SPARC20": (3.5, 12.8),
    "IBM RS6K 590": (5.2, 16.5),
    "CRI J90": (1.7, 60.8),
    "CRI YMP": (3.1, 178.1),
}


def table1_hint_vs_radabs() -> Experiment:
    """Table 1: HINT MQUIPS vs RADABS Mflops on four systems."""
    exp = Experiment(
        exp_id="table1",
        title="HINT (MQUIPS) vs RADABS (MFLOPS), single processors",
        headers=["Benchmark", "SUN SPARC20", "IBM RS6K 590", "CRI J90", "CRI YMP"],
        paper_values={name: v for name, v in PAPER_TABLE1.items()},
    )
    machines = table1_machines()
    quips = {n: hint.model_mquips(p) for n, p in machines.items()}
    flops = {n: radabs.model_mflops(p) for n, p in machines.items()}
    order = list(PAPER_TABLE1)
    exp.rows = [
        ["HINT (MQUIPS)"] + [round(quips[n], 1) for n in order],
        ["RADABS (MFLOPS)"] + [round(flops[n], 1) for n in order],
    ]
    exp.check(
        "RADABS ranks the vector machines first (YMP > J90 > RS6K > SPARC)",
        flops["CRI YMP"] > flops["CRI J90"] > flops["IBM RS6K 590"] > flops["SUN SPARC20"],
    )
    exp.check(
        "HINT inverts the ranking (workstations above the vector machines)",
        quips["SUN SPARC20"] > quips["CRI YMP"]
        and quips["IBM RS6K 590"] > quips["CRI YMP"]
        and quips["CRI J90"] == min(quips.values()),
    )
    for name, (paper_q, paper_f) in PAPER_TABLE1.items():
        exp.check(
            f"{name} within 20% of paper (HINT {paper_q}, RADABS {paper_f})",
            abs(quips[name] - paper_q) <= 0.2 * paper_q
            and abs(flops[name] - paper_f) <= 0.2 * paper_f,
            detail=f"model {quips[name]:.1f} MQUIPS / {flops[name]:.1f} Mflops",
        )
    return exp


# ---------------------------------------------------------------- Table 2
def table2_specs() -> Experiment:
    """Table 2: the benchmarked SX-4/32's specification sheet."""
    specs = sx4_32_benchmark_specs()
    exp = Experiment(
        exp_id="table2",
        title="Specifications of the benchmarked NEC SX-4/32",
        headers=["Item", "Value"],
        rows=[list(row) for row in specs.rows()],
        paper_values={
            "Clock Rate": "9.2 ns",
            "Peak FLOP Rate Per Processor": "2 GFLOPS",
            "Peak Memory Bandwidth": "16 GB/sec/proc",
            "Power Consumption": "122.8 KVA",
        },
    )
    rows = dict(specs.rows())
    for key, value in exp.paper_values.items():
        exp.check(f"{key} = {value}", rows[key] == value, detail=f"model: {rows[key]}")
    return exp


# ---------------------------------------------------------------- Table 3
def table3_elefunt() -> Experiment:
    """Table 3: intrinsic throughput in millions of calls per second.

    The paper's numeric values survive only as an image; the shape
    criteria are the vectorised-library magnitude and ordering.
    """
    table = elefunt.model_table3(_sx4())
    exp = Experiment(
        exp_id="table3",
        title="SX-4/1 intrinsic functions, millions of calls/second (64-bit)",
        headers=["EXP", "LOG", "PWR", "SIN", "SQRT"],
        rows=[[round(table[f], 1) for f in ("exp", "log", "pwr", "sin", "sqrt")]],
        notes="Paper values unavailable (image); shape criteria applied.",
    )
    exp.check(
        "all intrinsics run at vectorised-library rates (10..500 Mcalls/s)",
        all(10.0 < v < 500.0 for v in table.values()),
        detail=str({k: round(v, 1) for k, v in table.items()}),
    )
    exp.check("PWR (log+exp) is the slowest intrinsic", table["pwr"] == min(table.values()))
    exp.check("SQRT (divide pipes) is the fastest", table["sqrt"] == max(table.values()))
    return exp


# ---------------------------------------------------------------- Table 4
def table4_resolutions() -> Experiment:
    """Table 4: CCM2 resolutions, grids, spacings, timesteps (verbatim)."""
    from repro.apps.ccm2.resolutions import RESOLUTIONS

    exp = Experiment(
        exp_id="table4",
        title="Typical CCM2 resolutions, grid spacings, and time steps",
        headers=["Model Resolution", "Horizontal Grid Size", "Nominal Grid Spacing", "Time Step"],
    )
    paper = {
        "T42L18": ("64 x 128", "2.8 degrees", "20.0 min."),
        "T63L18": ("96 x 192", "2.1 degrees", "12.0 min."),
        "T85L18": ("128 x 256", "1.4 degrees", "10.0 min."),
        "T106L18": ("160 x 320", "1.1 degrees", "7.5 min."),
        "T170L18": ("256 x 512", "0.7 degrees", "5.0 min."),
    }
    exp.paper_values = paper
    for name, res in RESOLUTIONS.items():
        exp.rows.append(
            [
                name,
                res.horizontal_grid_label,
                f"{res.grid_spacing_degrees:.1f} degrees",
                f"{res.timestep_minutes:g} min.",
            ]
        )
        grid_ok = res.horizontal_grid_label == paper[name][0]
        step_ok = f"{res.timestep_minutes:g} min." == paper[name][2].replace("20.0", "20").replace(
            "12.0", "12"
        ) or f"{res.timestep_minutes:.1f} min." == paper[name][2]
        exp.check(f"{name} grid and timestep match Table 4", grid_ok and step_ok)
    # T63's paper spacing (2.1) is the great-circle latitude spacing; the
    # longitude formula gives 1.9 — check the others match on rounding.
    for name in ("T42L18", "T85L18", "T106L18", "T170L18"):
        res = RESOLUTIONS[name]
        exp.check(
            f"{name} nominal spacing rounds to the paper's value",
            f"{res.grid_spacing_degrees:.1f}" == paper[name][1].split()[0],
        )
    return exp


# ---------------------------------------------------------------- Table 5
def table5_one_year() -> Experiment:
    """Table 5: one-year simulations at T42L18 and T63L18."""
    node = _node()
    y42 = ccm2_cost.year_simulation_seconds(node, "T42L18")
    y63 = ccm2_cost.year_simulation_seconds(node, "T63L18")
    exp = Experiment(
        exp_id="table5",
        title="Time to simulate one year of climate (seconds)",
        headers=["Resolution", "Model time (s)", "Paper time (s)", "of which I/O (s)"],
        rows=[
            ["T42L18", round(y42["total_seconds"], 2), 1327.53, round(y42["io_seconds"], 1)],
            ["T63L18", round(y63["total_seconds"], 2), 3452.48, round(y63["io_seconds"], 1)],
        ],
        paper_values={"T42L18": 1327.53, "T63L18": 3452.48, "T63 history GB": 15.0},
        notes=(
            "Model times are dedicated-mode; the paper's production runs "
            "(unknown CPU allocation, shared machine) are ~2.8x slower in "
            "absolute terms.  The T63/T42 ratio — the shape — matches."
        ),
    )
    ratio = y63["total_seconds"] / y42["total_seconds"]
    exp.check(
        "T63/T42 cost ratio matches the paper's 2.60 within 15%",
        abs(ratio - 3452.48 / 1327.53) <= 0.15 * (3452.48 / 1327.53),
        detail=f"model ratio {ratio:.2f}",
    )
    exp.check(
        "T63 year writes approximately 15 GB",
        abs(y63["io_bytes"] - 15e9) <= 0.15 * 15e9,
        detail=f"model {y63['io_bytes'] / GB:.1f} GB",
    )
    exp.check(
        "both runs complete in minutes-to-an-hour, not hours",
        y42["total_seconds"] < 3600 and y63["total_seconds"] < 2 * 3600,
    )
    return exp


# ---------------------------------------------------------------- Table 6
def table6_ensemble() -> Experiment:
    """Table 6: the ensemble test — 1 vs 8 concurrent 4-CPU CCM2 jobs."""
    result = ccm2_cost.ensemble_degradation(_node())
    degradation_pct = 100.0 * result["degradation"]
    exp = Experiment(
        exp_id="table6",
        title="Ensemble test: single vs eight concurrent 4-processor jobs",
        headers=["Quantity", "Model", "Paper"],
        rows=[
            ["per-step wall, single job (s)", result["single_seconds"], "(image)"],
            ["per-step wall, 8 concurrent (s)", result["loaded_seconds"], "(image)"],
            ["relative degradation (%)", round(degradation_pct, 2), 1.89],
        ],
        paper_values={"degradation_pct": 1.89},
        notes="Raw times in the paper's Table 6 survive only as an image.",
    )
    exp.check(
        "degradation is 'very little' (< 5%)",
        result["degradation"] < 0.05,
        detail=f"{degradation_pct:.2f}%",
    )
    exp.check(
        "degradation within 35% of the paper's 1.89%",
        abs(degradation_pct - 1.89) <= 0.35 * 1.89,
        detail=f"{degradation_pct:.2f}%",
    )
    return exp


# ---------------------------------------------------------------- Table 7
def table7_mom() -> Experiment:
    """Table 7: MOM 350-step times and speedups."""
    table = mom_cost.speedup_table(_node())
    exp = Experiment(
        exp_id="table7",
        title="MOM: time for 350 steps and speedup vs one processor",
        headers=["CPUs", "Model time (s)", "Paper time (s)", "Model speedup", "Paper speedup"],
        paper_values={p: v for p, v in mom_cost.PAPER_TABLE7.items()},
    )
    for cpus, (t, s) in table.items():
        paper_t, paper_s = mom_cost.PAPER_TABLE7[cpus]
        exp.rows.append([cpus, round(t, 2), paper_t, round(s, 2), paper_s])
    exp.check(
        "single-CPU time matches the paper's 1861.25 s within 5%",
        abs(table[1][0] - 1861.25) <= 0.05 * 1861.25,
        detail=f"model {table[1][0]:.1f} s",
    )
    for cpus, (paper_t, _) in mom_cost.PAPER_TABLE7.items():
        exp.check(
            f"{cpus}-CPU time within 15% of the paper's {paper_t} s",
            abs(table[cpus][0] - paper_t) <= 0.15 * paper_t,
            detail=f"model {table[cpus][0]:.1f} s",
        )
    speedups = [table[p][1] for p in (1, 4, 8, 16, 32)]
    exp.check("speedup is monotone and sublinear ('modest scalability')",
              speedups == sorted(speedups) and all(s <= p for s, p in zip(speedups, (1, 4, 8, 16, 32))))
    exp.notes = (
        "The paper's printed speedups are inconsistent with its own times "
        "(1861.25/226.62 = 8.21, printed as 9.06); the model matches the times."
    )
    return exp


# ---------------------------------------------------------------- Figure 5
def figure5_memory_bandwidth() -> Experiment:
    """Figure 5: COPY / IA / XPOSE bandwidth vs axis length, SX-4/1."""
    proc = _sx4()
    curves = {
        "COPY": kcopy.model_curve(proc),
        "IA": ia.model_curve(proc),
        "XPOSE": xpose.model_curve(proc),
    }
    exp = Experiment(
        exp_id="figure5",
        title="Memory bandwidth (MB/s) vs axis length, SX-4/1",
        notes="Paper axis values unavailable (image); shape criteria applied.",
    )
    for name, curve in curves.items():
        ns, bws = curve.series()
        exp.series[name] = list(zip(map(float, ns), bws))
    copy_bw = curves["COPY"].asymptote_mb_per_s
    ia_bw = curves["IA"].asymptote_mb_per_s
    xpose_bw = curves["XPOSE"].asymptote_mb_per_s
    exp.check(
        "COPY far exceeds XPOSE and IA (>2x both)",
        copy_bw > 2 * ia_bw and copy_bw > 2 * xpose_bw,
        detail=f"COPY {copy_bw:.0f}, XPOSE {xpose_bw:.0f}, IA {ia_bw:.0f} MB/s",
    )
    exp.check(
        "COPY approaches the one-way port rate (4-7 GB/s at 9.2 ns)",
        4000 < copy_bw < 7000,
        detail=f"{copy_bw:.0f} MB/s",
    )
    for name, curve in curves.items():
        ns, bws = curve.series()
        exp.check(
            f"{name} bandwidth rises strongly with axis length",
            bws[-1] > 20 * bws[0],
            detail=f"{bws[0]:.1f} -> {bws[-1]:.0f} MB/s",
        )
    return exp


# ---------------------------------------------------------------- Figure 6
def figure6_rfft() -> Experiment:
    """Figure 6: RFFT Mflops vs transform length, three factor families."""
    fam = rfft.model_family(_sx4())
    exp = Experiment(
        exp_id="figure6",
        title="RFFT ('scalar' style) Mflops vs transform length, SX-4/1",
        notes="Paper axis values unavailable (image); shape criteria applied.",
    )
    for family, pts in fam.items():
        exp.series[family] = [(float(n), mf) for n, mf in pts]
    pow2 = dict(fam["2^n"])
    exp.check(
        "performance rises with transform length",
        pow2[1024] > pow2[16] > pow2[2],
        detail=f"N=2: {pow2[2]:.0f}, N=16: {pow2[16]:.0f}, N=1024: {pow2[1024]:.0f} Mflops",
    )
    exp.check(
        "scalar-style code stays far below vector rates (< 200 Mflops)",
        all(mf < 200 for pts in fam.values() for _, mf in pts),
    )
    return exp


# ---------------------------------------------------------------- Figure 7
def figure7_vfft() -> Experiment:
    """Figure 7: VFFT Mflops vs instance count (vector length)."""
    proc = _sx4()
    fam = vfft.model_family(proc)
    exp = Experiment(
        exp_id="figure7",
        title="VFFT ('vector' style) Mflops vs vector length, SX-4/1",
        notes="Paper axis values unavailable (image); shape criteria applied.",
    )
    # Series per family at N=256-class lengths: plot Mflops vs M.
    for family, pts in fam.items():
        biggest_n = max(n for n, _, _ in pts)
        exp.series[f"{family} (N={biggest_n})"] = [
            (float(m), mf) for n, m, mf in pts if n == biggest_n
        ]
    v256 = vfft.model_mflops(proc, 256, 500)
    r256 = rfft.model_mflops(proc, 256)
    exp.check(
        "VFFT is approximately an order of magnitude faster than RFFT",
        v256 > 7 * r256,
        detail=f"VFFT(256,500) {v256:.0f} vs RFFT(256) {r256:.0f} Mflops",
    )
    exp.check(
        "performance climbs with vector length toward Gflops rates",
        vfft.model_mflops(proc, 256, 500) > 1000 > vfft.model_mflops(proc, 256, 10),
    )
    exp.check(
        "vector length 1 forfeits the vector advantage",
        vfft.model_mflops(proc, 256, 1) < r256,
    )
    return exp


# ---------------------------------------------------------------- Figure 8
def figure8_ccm2_scaling() -> Experiment:
    """Figure 8: CCM2 Gflops vs processors for T42/T106/T170."""
    node = _node()
    curves = ccm2_cost.figure8_curves(node)
    exp = Experiment(
        exp_id="figure8",
        title="CCM2 sustained Cray-equivalent Gflops vs processors",
        paper_values={"T170L18 @ 32 CPUs": 24.0},
    )
    for name, pts in curves.items():
        exp.series[name] = [(float(p), gf) for p, gf in pts]
    t170_32 = dict(curves["T170L18"])[32]
    exp.check(
        "T170L18 sustains ~24 Gflops on 32 processors",
        abs(t170_32 - 24.0) <= 0.12 * 24.0,
        detail=f"model {t170_32:.1f} Gflops",
    )
    for cpus in (1, 8, 32):
        g = {name: dict(pts)[cpus] for name, pts in curves.items()}
        exp.check(
            f"longer-vector resolutions are faster at {cpus} CPUs",
            g["T42L18"] < g["T106L18"] < g["T170L18"],
        )

    def efficiency(name):
        pts = dict(curves[name])
        return pts[32] / (32 * pts[1])

    exp.check(
        "medium and large problems scale best (T42 efficiency lowest)",
        efficiency("T42L18") < efficiency("T106L18"),
        detail=f"eff T42 {efficiency('T42L18'):.2f}, T106 {efficiency('T106L18'):.2f}, "
        f"T170 {efficiency('T170L18'):.2f}",
    )
    return exp


# ---------------------------------------------------------------- Section 4.1
def sec41_correctness() -> Experiment:
    """PARANOIA and ELEFUNT accuracy: the pass/fail gate."""
    import numpy as np

    exp = Experiment(
        exp_id="sec4.1",
        title="Floating-point correctness: PARANOIA + ELEFUNT accuracy",
        headers=["Test", "Verdict", "Detail"],
    )
    for dtype in (np.float64, np.float32):
        report = paranoia.run_paranoia(dtype)
        exp.rows.append(
            [f"PARANOIA {report.dtype}", "pass" if report.passed else "FAIL",
             f"{len(report.checks)} probes"]
        )
        exp.check(f"PARANOIA passes on {report.dtype}", report.passed,
                  detail=", ".join(c.name for c in report.failures) or "clean")
    for result in elefunt.run_accuracy_suite():
        exp.rows.append(
            [f"ELEFUNT {result.function}", "pass" if result.passed else "FAIL",
             f"max {result.max_ulp:.1f} ULP ({result.identity})"]
        )
        exp.check(f"ELEFUNT {result.function} within {result.threshold:g} ULP",
                  result.passed, detail=f"max {result.max_ulp:.1f} ULP")
    return exp


# ---------------------------------------------------------------- Section 4.4
def sec44_radabs() -> Experiment:
    """The RADABS headline: 865.9 Y-MP-equivalent Mflops on the SX-4/1."""
    mflops = radabs.model_mflops(_sx4())
    exp = Experiment(
        exp_id="sec4.4",
        title="RADABS single-processor performance",
        headers=["Machine", "Model Mflops", "Paper Mflops"],
        rows=[["NEC SX-4/1", round(mflops, 1), 865.9]],
        paper_values={"SX-4/1": 865.9},
    )
    exp.check(
        "SX-4/1 sustains ~865.9 Y-MP-equivalent Mflops (within 10%)",
        abs(mflops - 865.9) <= 0.10 * 865.9,
        detail=f"model {mflops:.1f}",
    )
    ymp = radabs.model_mflops(table1_machines()["CRI YMP"])
    exp.check(
        "the SX-4/1 outruns a Y-MP processor by ~4-5x on RADABS",
        4.0 < mflops / ymp < 5.5,
        detail=f"ratio {mflops / ymp:.2f}",
    )
    return exp


# ---------------------------------------------------------------- Section 4.5
def sec45_io() -> Experiment:
    """The untabulated I/O benchmarks: machinery + representative rates."""
    exp = Experiment(
        exp_id="sec4.5",
        title="I/O benchmarks: disk history tape, HIPPI, FDDI network",
        headers=["Benchmark", "Quantity", "Value"],
        notes="The paper reports no numbers ('voluminous'); representative "
        "rates from period hardware models are shown.",
    )
    t63 = history.history_io_benchmark("T63L18")
    hip = hippi.hippi_benchmark(channels=1)
    net = network.network_benchmark()
    exp.rows = [
        ["I/O (disk)", "T63 history write rate", f"{t63['write_rate_bytes_per_s'] / MB:.1f} MB/s"],
        ["I/O (disk)", "T63 tape size", f"{t63['tape_bytes'] / MB:.1f} MB"],
        ["HIPPI", "best single-transfer rate", f"{hip['single_curve'][-1][1] / MB:.1f} MB/s"],
        ["HIPPI", "4-channel aggregate", f"{hippi.hippi_benchmark(channels=4)['aggregate_rate_bytes_per_s'] / MB:.1f} MB/s"],
        ["NETWORK", "ftp put 100MB", f"{net['ftp put 100MB']['rate_bytes_per_s'] / MB:.2f} MB/s"],
    ]
    disk_rate = t63["write_rate_bytes_per_s"]
    hippi_rate = hip["single_curve"][-1][1]
    fddi_rate = net["ftp put 100MB"]["rate_bytes_per_s"]
    exp.check(
        "the hierarchy holds: FDDI < disk < HIPPI < memory",
        fddi_rate < disk_rate < hippi_rate < 16e9,
        detail=f"{fddi_rate / MB:.1f} < {disk_rate / MB:.1f} < {hippi_rate / MB:.1f} MB/s",
    )
    exp.check(
        "HIPPI approaches its 100 MB/s line rate on large packets",
        90e6 < hippi_rate < 100e6,
    )
    return exp


# ---------------------------------------------------------------- Section 4.6
def sec46_prodload() -> Experiment:
    """PRODLOAD: the 93m28s production-workload run."""
    result = prodload.run_prodload()
    exp = Experiment(
        exp_id="sec4.6",
        title="PRODLOAD production workload",
        headers=["Test", "Wall clock"],
        rows=[[name, fmt_time(seconds)] for name, seconds in result.test_seconds.items()]
        + [["TOTAL", fmt_time(result.total_seconds)]],
        paper_values={"total": "93m28s (5608 s)"},
    )
    exp.check(
        "total wall clock within 10% of the paper's 93m28s",
        abs(result.total_seconds - prodload.PAPER_TOTAL_SECONDS)
        <= 0.10 * prodload.PAPER_TOTAL_SECONDS,
        detail=f"model {fmt_time(result.total_seconds)}",
    )
    t1, t3 = result.test_seconds["test1"], result.test_seconds["test3"]
    exp.check(
        "4x the concurrent load stretches wall clock by < 15% (tests 1 vs 3)",
        t3 < 1.15 * t1,
        detail=f"test1 {fmt_time(t1)}, test3 {fmt_time(t3)}",
    )
    return exp


# ---------------------------------------------------------------- Section 4.7.3
def sec473_pop() -> Experiment:
    """POP: 537 Mflops with the unvectorised-CSHIFT pre-release compiler."""
    scalar = pop_cost.model_mflops(cshift_vectorized=False)
    vector = pop_cost.model_mflops(cshift_vectorized=True)
    exp = Experiment(
        exp_id="sec4.7.3",
        title="POP 2-degree benchmark, one SX-4 processor",
        headers=["Configuration", "Model Mflops", "Paper Mflops"],
        rows=[
            ["pre-release F90 (CSHIFT scalar)", round(scalar, 1), 537.0],
            ["production F90 (CSHIFT vectorised)", round(vector, 1), "(not measured)"],
        ],
        paper_values={"CSHIFT scalar": 537.0},
    )
    exp.check(
        "unvectorised-CSHIFT rate matches the paper's 537 Mflops (10%)",
        abs(scalar - 537.0) <= 0.10 * 537.0,
        detail=f"model {scalar:.1f}",
    )
    exp.check(
        "vectorising CSHIFT is worth a substantial speedup (>1.3x)",
        vector > 1.3 * scalar,
        detail=f"{vector:.0f} vs {scalar:.0f} Mflops",
    )
    return exp


# ---------------------------------------------------------------- Section 2
def sec2_architecture() -> Experiment:
    """Section 2's architecture claims, derived from the machine model."""
    node = sx4_node(cpus=32, period_ns=8.0)  # claims quote the 8.0 ns part
    full = MultiNodeSystem(node=node, node_count=16)
    exp = Experiment(
        exp_id="sec2",
        title="SX-4 architecture numbers (Section 2), derived from the model",
        headers=["Claim", "Model value", "Paper value"],
    )
    rows = [
        ("peak per processor", f"{node.processor.peak_flops / GIGA:g} GFLOPS", "2 GFLOPS"),
        ("peak per node", f"{node.peak_flops / GIGA:g} GFLOPS", "64 GFLOPS"),
        ("full system CPUs", f"{full.cpu_count}", "512"),
        ("memory bandwidth, full system",
         f"{full.aggregate_memory_bandwidth_bytes_per_s / TB:.1f} TB/s", "> 8 TB/s"),
        ("IXS bisection, 16 nodes",
         f"{full.ixs.bisection_bytes_per_s(16) / GB:g} GB/s", "128 GB/s"),
        ("node memory bandwidth",
         f"{node.node_bandwidth_bytes_per_s / GB:g} GB/s", "512 GB/s"),
    ]
    exp.rows = [list(r) for r in rows]
    exp.check("peak per processor is 2 GFLOPS at 8.0 ns",
              abs(node.processor.peak_flops - 2e9) < 1e6)
    exp.check("a full SX-4/512 exceeds 8 TB/s of memory bandwidth",
              full.aggregate_memory_bandwidth_bytes_per_s > 8e12)
    exp.check("IXS bisection is 128 GB/s at 16 nodes",
              abs(full.ixs.bisection_bytes_per_s(16) - 128e9) < 1e6)
    # The three hardware float formats (probed through emulated arithmetic).
    for fmt in floatformats.ALL_FORMATS:
        radix = floatformats.detect_radix(fmt)
        exp.check(
            f"{fmt.name}: probes detect radix {fmt.radix}, precision {fmt.precision}",
            radix == fmt.radix and floatformats.detect_precision(fmt, radix) == fmt.precision,
        )
    exp.check(
        "Cray compatibility mode chops; IEEE and IBM modes round to nearest",
        not floatformats.rounds_to_nearest(floatformats.CRAY_SINGLE)
        and floatformats.rounds_to_nearest(floatformats.IEEE_DOUBLE),
    )
    return exp


# ---------------------------------------------------------------- Section 3
def sec3_other_benchmarks() -> Experiment:
    """Section 3: why LINPACK, NAS and STREAM were rejected — quantified."""
    proc = sx4_processor()
    exp = Experiment(
        exp_id="sec3",
        title="Rejected benchmark suites: LINPACK, NAS EP, STREAM on the SX-4 model",
        headers=["Benchmark", "Result", "The paper's criticism, measured"],
    )
    linpack_mflops = linpack.model_mflops(proc, 1000)
    linpack_eff = linpack_mflops * MEGA / proc.peak_flops
    radabs_raw_eff = proc.execute(radabs.build_trace(8192)).raw_mflops * MEGA / proc.peak_flops
    stream_bws = stream.model_bandwidths(proc)
    ncar_copy = kcopy.model_curve(proc)
    ns, bws = ncar_copy.series()
    exp.rows = [
        ["LINPACK n=1000", f"{linpack_mflops:.0f} Mflops ({100 * linpack_eff:.0f}% of peak)",
         f"climate workload runs at {100 * radabs_raw_eff:.0f}% of peak"],
        ["STREAM COPY", f"{stream_bws['COPY']:.0f} MB/s (one size)",
         f"NCAR sweep spans {bws[0]:.0f}..{bws[-1]:.0f} MB/s over N=1..1e6"],
        ["STREAM TRIAD", f"{stream_bws['TRIAD']:.0f} MB/s", "no irregular-access measurement"],
    ]
    # NAS EP: pure arithmetic, blind to the memory system.
    ep_mflops = nas.ep_model_mflops(proc)
    strangled = sx4_processor()
    strangled.memory.port_words_per_cycle /= 8.0
    ep_strangled = nas.ep_model_mflops(strangled)
    exp.rows.append(
        ["NAS EP", f"{ep_mflops:.0f} Mflops",
         f"unchanged ({ep_strangled:.0f}) with 1/8 the memory port"]
    )
    exp.check(
        "NAS EP cannot see memory bandwidth (a 1/8 port changes it <5%)",
        abs(ep_strangled - ep_mflops) < 0.05 * ep_mflops,
    )
    exp.check(
        "'LINPACK tends to measure peak performance': efficiency exceeds "
        "the climate workload's raw efficiency by >1.3x",
        linpack_eff > 1.3 * radabs_raw_eff,
        detail=f"{100 * linpack_eff:.0f}% vs {100 * radabs_raw_eff:.0f}%",
    )
    exp.check(
        "STREAM's single measurement misses the short-vector regime "
        "(NCAR sweep varies by >50x)",
        bws[-1] > 50 * bws[0],
    )
    exp.check(
        "STREAM measures no gather bandwidth, which is ~3x lower",
        stream_bws["COPY"] > 2 * ia.model_curve(proc).asymptote_mb_per_s,
    )
    return exp


#: Registry: experiment id -> builder, in paper order.
EXPERIMENTS: dict[str, Callable[[], Experiment]] = {
    "sec2": sec2_architecture,
    "sec3": sec3_other_benchmarks,
    "table1": table1_hint_vs_radabs,
    "table2": table2_specs,
    "sec4.1": sec41_correctness,
    "figure5": figure5_memory_bandwidth,
    "figure6": figure6_rfft,
    "figure7": figure7_vfft,
    "table3": table3_elefunt,
    "sec4.4": sec44_radabs,
    "sec4.5": sec45_io,
    "sec4.6": sec46_prodload,
    "table4": table4_resolutions,
    "figure8": figure8_ccm2_scaling,
    "table5": table5_one_year,
    "table6": table6_ensemble,
    "table7": table7_mom,
    "sec4.7.3": sec473_pop,
}

"""CCM2 benchmark resolutions (Table 4).

"For spectral climate models such as CCM2 it is canonical to denote the
resolution by the truncation wave number and the number of vertical
layers": T42L18 is triangular truncation 42 with 18 levels on the
64×128 Gaussian grid.  Table 4 lists the five resolutions the benchmark
runs, their grids, nominal spacings and timesteps — regenerated verbatim
by the ``table4`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Resolution", "RESOLUTIONS", "resolution"]


@dataclass(frozen=True)
class Resolution:
    """One CCM2 resolution: truncation, grid, timestep."""

    name: str
    trunc: int
    nlat: int
    nlon: int
    nlev: int
    timestep_minutes: float

    def __post_init__(self) -> None:
        if self.nlon != 2 * self.nlat:
            raise ValueError(f"{self.name}: CCM2 grids have nlon = 2·nlat")
        if self.timestep_minutes <= 0:
            raise ValueError(f"{self.name}: timestep must be positive")

    @property
    def timestep_seconds(self) -> float:
        return self.timestep_minutes * 60.0

    @property
    def grid_spacing_degrees(self) -> float:
        """Nominal spacing, 360°/nlon (Table 4's 'Nominal Grid Spacing')."""
        return 360.0 / self.nlon

    @property
    def columns(self) -> int:
        return self.nlat * self.nlon

    @property
    def nspec(self) -> int:
        """Spectral coefficients under triangular truncation."""
        return (self.trunc + 1) * (self.trunc + 2) // 2

    @property
    def steps_per_day(self) -> int:
        steps = 24 * 60 / self.timestep_minutes
        return int(round(steps))

    def steps_for_days(self, days: float) -> int:
        if days < 0:
            raise ValueError(f"day count cannot be negative, got {days}")
        return int(round(days * self.steps_per_day))

    @property
    def horizontal_grid_label(self) -> str:
        """Table 4's 'Horizontal Grid Size' column, e.g. '64 x 128'."""
        return f"{self.nlat} x {self.nlon}"


#: Table 4 verbatim: resolution, grid, nominal spacing, timestep.
RESOLUTIONS: dict[str, Resolution] = {
    res.name: res
    for res in (
        Resolution("T42L18", trunc=42, nlat=64, nlon=128, nlev=18, timestep_minutes=20.0),
        Resolution("T63L18", trunc=63, nlat=96, nlon=192, nlev=18, timestep_minutes=12.0),
        Resolution("T85L18", trunc=85, nlat=128, nlon=256, nlev=18, timestep_minutes=10.0),
        Resolution("T106L18", trunc=106, nlat=160, nlon=320, nlev=18, timestep_minutes=7.5),
        Resolution("T170L18", trunc=170, nlat=256, nlon=512, nlev=18, timestep_minutes=5.0),
    )
}


def resolution(name: str) -> Resolution:
    """Look up a Table 4 resolution by name (e.g. ``"T42L18"`` or ``"T42"``)."""
    if name in RESOLUTIONS:
        return RESOLUTIONS[name]
    with_levels = f"{name}L18"
    if with_levels in RESOLUTIONS:
        return RESOLUTIONS[with_levels]
    raise KeyError(f"unknown resolution {name!r}; Table 4 defines {sorted(RESOLUTIONS)}")

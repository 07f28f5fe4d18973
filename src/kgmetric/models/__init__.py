"""Worked models: harmonic oscillator, periodic Klein-Gordon lattice, FRW
Wheeler-DeWitt minisuperspace. Each wires a concrete wave operator into the
generic machinery and carries its closed-form values for cross-checking."""

from .sho import ShoModel, sho_basic_solution, sho_inner
from .lattice import (
    KleinGordonLattice,
    NonRelLimitReport,
    kg_band_limited_solution,
    kg_inner_ri,
    kg_mode_solution,
    kg_nonrel_limit_check,
    kg_relativistic_spec,
    kg_superposition,
    woodard_inner,
)
from .wdw import (
    WdwCrosscheckReport,
    WdwFrwModel,
    wdw_invariant_inner,
    wdw_numeric_crosscheck,
    wdw_operator,
    wdw_positivity,
)

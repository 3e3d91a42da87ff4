"""Degenerate mirrorless lasing in alkali vapor.

Builds driven F_g -> F_e Zeeman-degenerate systems, solves their Lindblad
dynamics to steady state, computes weak-probe absorption/gain spectra via the
quantum regression theorem, and propagates pump and orthogonally polarized
emission intensities along a pencil-shaped cell.
"""

import os

# The matrices are at most 144x144, too small for a BLAS thread pool to pay
# off; a value the user set is kept.  No effect if numpy was imported first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .angular import BranchingTable, branching_ratios
from .dynamics import (DegenerateSteadyStateError, Evolution, InversionScan,
                       Liouvillian, SaturationPoint, build_liouvillian,
                       equal_ground_state, evolve, inversion_scan,
                       omega_from_saturation, pump_only_steady_state,
                       steady_state)
from .levels import (CollapseChannels, FieldConfig, LevelScheme,
                     build_collapse, build_scheme, probe_raising,
                     pump_hamiltonian, pump_raising)
from .propagation import (CellConfig, PropagationProfile, output_curve,
                          propagate, spontaneous_sources,
                          transport_coefficients)
from .spectra import (CorrelationWindowError, DipoleOperator,
                      PerpendicularGain, SpectrumResult, correlation_spectrum,
                      min_absorption_scan, parallel_dipole,
                      perpendicular_dipole, perpendicular_gain_spectrum,
                      resolvent_spectrum, weak_probe_absorption)

__all__ = [
    "BranchingTable", "branching_ratios",
    "CollapseChannels", "FieldConfig", "LevelScheme", "build_collapse",
    "build_scheme", "probe_raising", "pump_hamiltonian", "pump_raising",
    "DegenerateSteadyStateError", "Evolution", "InversionScan", "Liouvillian",
    "SaturationPoint", "build_liouvillian", "equal_ground_state", "evolve",
    "inversion_scan", "omega_from_saturation", "pump_only_steady_state",
    "steady_state",
    "CorrelationWindowError", "DipoleOperator", "PerpendicularGain",
    "SpectrumResult", "correlation_spectrum", "min_absorption_scan",
    "parallel_dipole", "perpendicular_dipole", "perpendicular_gain_spectrum",
    "resolvent_spectrum", "weak_probe_absorption",
    "CellConfig", "PropagationProfile", "output_curve", "propagate",
    "spontaneous_sources", "transport_coefficients",
]

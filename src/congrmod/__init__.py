"""Exact congruence modules and congruence ideals over a discrete
valuation ring, with the numerical criteria attached to them."""

from .algebra import (AugmentedAlgebra, CotangentData, build_algebra,
                      cotangent_invariants, regularity_at_lambda,
                      symbolic_power_test)
from .config import DEFAULT_CONFIG, EngineConfig
from .congruence import (CongruenceReport, ExtModule, RegularityWarning,
                         analyze, deformation_step, eta, eta_codim0_oracle,
                         eta_raw, ext_module, invariance_check, kappa_defect,
                         numerical_criterion, psi, psi_direct_codim0, psi_raw,
                         serre_check)
from .dvr import Dvr, IdealO, INF
from .fpmodule import FpModule
from .lattice import LatticeSplit, pairing_discriminant, split_and_congruence
from .omodule import FinOModule, smith_form
from .poly import (GLOBAL, LOCAL, MonomialOrder, Poly, PolyRing, parse_poly,
                   parse_scalar, taylor_division)
from .resolution import (FreeResolution, resolve_O, syzygy_module,
                         verify_resolution)
from .stdbasis import StdBasis, std_basis

__all__ = [
    "AugmentedAlgebra", "CongruenceReport", "CotangentData", "DEFAULT_CONFIG",
    "Dvr", "EngineConfig", "ExtModule", "FinOModule", "FpModule",
    "FreeResolution", "GLOBAL", "IdealO", "INF", "LatticeSplit", "LOCAL",
    "MonomialOrder", "Poly", "PolyRing", "RegularityWarning", "StdBasis",
    "analyze", "build_algebra", "cotangent_invariants", "deformation_step",
    "eta", "eta_codim0_oracle", "eta_raw", "ext_module", "invariance_check",
    "kappa_defect", "numerical_criterion", "pairing_discriminant",
    "parse_poly", "parse_scalar", "psi", "psi_direct_codim0", "psi_raw",
    "regularity_at_lambda", "resolve_O", "serre_check", "smith_form",
    "split_and_congruence", "std_basis", "symbolic_power_test",
    "syzygy_module", "taylor_division", "verify_resolution",
]

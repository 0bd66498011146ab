"""Exact-arithmetic toolkit for Wahl-chain degenerations of K3 surfaces.

Continued-fraction calculus, nodal curve configurations with an exact
blow-up engine, surface certification (ampleness, obstructions,
fundamental-group sufficiency), the catalog of the extremal configuration
with its verification ledger, and blow-up plan search.
"""
from .chains import (ChainError, CyclicQuotient, TSingularity, WahlSingularity,
                     blow_down_compose, discrepancies, hj_eval, hj_expand,
                     is_wahl, length_bound, meridian_exponents, meridian_order,
                     t_singularity, wahl_generate, wahl_singularity)
from .configuration import (Configuration, ConfigurationError, Curve, GeographyReport,
                            Node, det_exact, geography_check, rank_exact)
from .assembly import (AssemblyError, MarkedSurface, NefAmpleReport, Pi1Report,
                       SurfaceReport, k_squared, nef_ample_check,
                       obstruction_dim, pi1_verdict, surface_report)
from .plans import (BlowupPlan, InferenceResult, PlanError, PlanStep,
                    SearchParams, SearchResult, infer_plan, mark_chains,
                    search_constructions)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]

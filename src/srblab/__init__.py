"""Finite-horizon hyperbolicity diagnostics and empirical SRB-style measures
for invertible model maps with dominated splittings."""

from .charts import Chart, torus_chart
from .cones import (check_avg_domination, cone_width_of,
                    domination_robustness_radius, verify_cone_contraction)
from .disks import (ContractionReport, CurvatureConstants, CurvatureReport,
                    DistortionConstants, DistortionReport, EmbeddedDisk,
                    TangencyReport, backward_contraction_check,
                    curvature_constants, curvature_recursion, distortion,
                    distortion_profile, holder_curvature,
                    hyperbolic_component, iterate_disk, make_disk,
                    make_graph_disk, measure_distortion_constants, measure_l1,
                    tangency_report)
from .errors import (CarvingFailed, ChainInfeasible, ChartOverflow,
                     ConfigInvalid, ConstantsInvalid, ConstructionFailed,
                     DegenerateSplitting, DegenerateTangent,
                     DimensionMismatch, EmptyRadius, HypothesisViolated,
                     OrbitEscaped, ResolutionExhausted, SrbLabError)
from .experiments import (Config, describe, list_models, parse_config,
                          run_experiment)
from .linalg import Subspace, oblique_components, subspace_distance
from .measures import (DefectReport, HyperbolicMassReport, Observable,
                       default_observables, hyperbolic_mass,
                       invariance_defect, physical_fraction,
                       pushforward_integrals, pushforward_step_integrals,
                       select_disjoint_balls, weak_star_distance)
from .models import (build, lambda_fraction, linear_torus_system,
                     measure_constants_h, quasi_uniform, region_sample)
from .pliss import (HyperbolicTimeReport, PlissParams, density_theta,
                    hyperbolic_times, lambda_membership_batch, pliss_times)
from .systems import (CocycleLog, ConstantsH, ConvergedSplitting, MapSystem,
                      SplittingField, SystemConstants, cocycle_logs,
                      cocycle_logs_batch, orbit_coords,
                      splitting_frames_along_orbit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Quaternionic calculus for sampled conformal surfaces.

Curvature and Hopf-form extraction on rectangular isothermal charts,
holomorphic quadratic differentials, dual (Christoffel-type) surfaces,
Bonnet mates via spin transforms, and a marching solver for the
conformal-deformation Cauchy problem.
"""

from .quaternions import (QForm, anticonformal_defect, from_real, from_vec,
                          qconj, qdot, qinv, qmul, qnorm, qnormsq, quat,
                          realpart, sandwich, split_conformal,
                          split_tangential, star, to_vec, value_tangential,
                          value_transversal, wedge)
from .charts import (ChartImmersion, CurvatureData, GridChart,
                     anticonformality_residual, build_immersion, deriv_x,
                     deriv_y, field_stats, floored_relative, form_rms,
                     holo_function_check, interior, raw_frame, relate_hopf,
                     rms, tangentiality_residual, umbilics,
                     weingarten_residual, weingarten_split)
from .quaddiff import (ChartCurve, QuadDifferential, check_holomorphic,
                       cr_residual, form_from_qdiff, noncharacteristic,
                       qdiff_from_form, stretch_directions, zero_locus)
from .duality import (DualResult, classify_christoffel, integrate_dual,
                      integrate_form, verify_duality)
from .bonnet import (BonnetPair, SpinField, bonnet_pair,
                     cmc_eps_uniqueness, gauge_check,
                     shape_distortion_check, spin_closedness, spin_form,
                     spin_integrate, umbilic_branch_correspondence)
from .cauchy import (CauchyProblem, SymbolMap, build_background,
                     characteristic_angles, check_wellposed, march_solve,
                     reconstruct, stretch_alignment, symbol,
                     symbol_det_profile)
from .generators import (GeneratorResult, CATALOG, catenoid, cylinder,
                         ellipsoid_of_revolution, enneper, make_surface,
                         sphere, unduloid)
from .align import congruence_distance, rigid_align, similarity_distance
from .io import (canonical_json, config_hash, ensure_outdir,
                 read_positions_csv, read_qdiff_csv, write_field_csv,
                 write_obj, write_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

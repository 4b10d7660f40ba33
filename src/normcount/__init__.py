"""Counting normals, equilibria and affine diameters of convex bodies.

Exact wedge decompositions for polygons and polytopes, root counting for
smooth support-parameterized bodies, exact and Monte Carlo interior and
boundary averages, offset and curvature flows, normed-plane
(Minkowski) variants, and inscribed-polygon discretization experiments.
"""

from .averaging import (EstimateReport, estimate_boundary_average,
                        estimate_interior_average, exact_average, field_map)
from .bodies2d import (Arc, ArcBody2, Polygon2, SmoothBody2, bounding_box,
                       build_polygon, build_reuleaux, contains2,
                       contains2_batch, difference_body, difference_body_area,
                       disk, fit_support_body, measure2d,
                       minkowski_sum_polygons, reflect_polygon,
                       sample_boundary2, sample_interior2,
                       signed_boundary_excess, width_function)
from .bodies3d import (Polytope3, bounding_box3, build_polytope, contains3,
                       contains3_batch, measure3d, polytope_from_points,
                       prism_over, sample_interior3, standard_polytope)
from .bodyspec import body_hash, format_float, parse_body
from .diameters import (INFINITE, DiameterChord, average_diameters,
                        count_diameters, count_diameters_polygon,
                        diameter_chord, diameter_counts_batch,
                        parallel_antipodal_edge_pairs)
from .discretization import RaceRow, discretization_race, inscribe_polygon
from .errors import (ConvexityError, DegenerateBodyError,
                     DegenerateConfigurationError, DomainError, GeometryError,
                     InfiniteDiametersError, SingularFlowError, SpecError,
                     TooSingularError, UnsupportedCombinationError)
from .evolute import (contains_evolute, curvature_profile,
                      normal_means, rolling_ball_radius)
from .flows import (FlowSpec, FlowTrace, derivative_report, evolve_flow,
                    monotonicity_verdict, offset_body)
from .minkowski import (NormBall2, count_minkowski_normals, gauge,
                        gauge_batch, hexagon_ratio_tau,
                        mink_counts_batch, minkowski_counter,
                        normed_width_bound, refine_mink_roots)
from .normals import (NormalFoot, count_normals2, count_normals2_batch,
                      count_normals3, count_normals3_batch,
                      count_normals3_by_dim, normal_feet2, stable_count)
from .trigcount import DEGENERATE
from .wedges import (Wedge, all_wedges, edge_wedge, euler_residual,
                     exact_average_normals, exact_average_normals3,
                     is_centrally_symmetric,
                     polygon_intersection_area, reflected_wedge, vertex_wedge,
                     wedge_fill_deficiency)

__version__ = "0.1.0"

__all__ = [
    "Arc", "ArcBody2", "ConvexityError", "DEGENERATE", "DegenerateBodyError",
    "DegenerateConfigurationError", "DiameterChord", "DomainError",
    "EstimateReport", "FlowSpec", "FlowTrace", "GeometryError",
    "INFINITE", "InfiniteDiametersError", "NormBall2", "NormalFoot",
    "Polygon2", "Polytope3", "RaceRow", "SingularFlowError", "SmoothBody2",
    "SpecError", "TooSingularError", "UnsupportedCombinationError", "Wedge",
    "all_wedges", "average_diameters", "body_hash",
    "bounding_box", "bounding_box3",
    "build_polygon", "build_polytope", "build_reuleaux",
    "contains2", "contains2_batch", "contains3", "contains3_batch",
    "contains_evolute", "signed_boundary_excess",
    "count_diameters", "count_diameters_polygon",
    "count_minkowski_normals", "count_normals2", "count_normals2_batch",
    "count_normals3", "count_normals3_batch", "count_normals3_by_dim",
    "curvature_profile", "derivative_report",
    "diameter_chord", "diameter_counts_batch", "difference_body",
    "difference_body_area", "discretization_race", "disk", "edge_wedge",
    "estimate_boundary_average", "estimate_interior_average",
    "euler_residual", "evolve_flow", "exact_average",
    "exact_average_normals", "exact_average_normals3", "field_map",
    "fit_support_body", "format_float",
    "gauge", "gauge_batch", "hexagon_ratio_tau", "inscribe_polygon",
    "is_centrally_symmetric", "measure2d", "measure3d",
    "mink_counts_batch", "minkowski_counter", "minkowski_sum_polygons",
    "monotonicity_verdict", "normal_feet2", "normal_means", "normed_width_bound",
    "offset_body", "parallel_antipodal_edge_pairs", "parse_body",
    "polygon_intersection_area", "polytope_from_points", "prism_over",
    "reflect_polygon", "reflected_wedge", "refine_mink_roots",
    "rolling_ball_radius",
    "sample_boundary2", "sample_interior2", "sample_interior3",
    "stable_count", "standard_polytope", "vertex_wedge",
    "wedge_fill_deficiency", "width_function",
]

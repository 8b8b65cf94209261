"""Spatial degrees of freedom of free-space channels.

Analytic NDoF estimates from total mutual shadow lengths/areas, numeric
estimates from the spectrum of a sampled Green's-function channel matrix,
and the capacity machinery (generalized radiation modes, water-filling)
that connects them.
"""

from .capacity import (
    RadiationModes,
    WaterfillResult,
    inverse_eigen_curve,
    max_effective_area,
    radiation_modes,
    trace_identity,
    waterfill,
)
from .channel import (
    ChannelOperator,
    FarFieldPort,
    SampleSet,
    assemble_channel,
    green_2d,
    green_3d,
    green_dyadic_3d,
    ports_from_quadrature,
    sample_region,
)
from .geometry import (
    ConvexPolygon,
    Direction,
    Disc,
    PlanarPolygon,
    Segment,
    ShadowInterval,
    ShadowPolygon,
    Sphere,
    TriangleMesh,
    circle_intersection_area,
    convex_polygon_intersection,
    interval_intersection,
    mesh_disc,
    mesh_plate,
    mesh_sphere,
    project_shape_2d,
    project_shape_3d,
)
from .quadrature import (
    DirectionQuadrature,
    circle_quadrature,
    scene_circle_quadrature,
    scene_sphere_quadrature,
    sphere_quadrature,
)
from .scenario import FarFieldSpec, ScenarioConfig, load_scenario, run_scenario, validate
from .shadow import (
    MutualShadowResult,
    NdofEstimate,
    Region,
    mesh_mutual_shadow,
    mutual_shadow_direction,
    ndof_from_shadow,
    reference_ndof,
    shadow_area_two_discs,
    shadow_area_two_spheres,
    shadow_length_two_lines,
    total_mutual_shadow,
    total_shadow,
    wavelength_for_ndof,
)
from .spectra import (
    SpectrumResult,
    dense_spectrum,
    effective_ndof,
    knee_ndof,
    randomized_spectrum,
)

__version__ = "0.1.0"

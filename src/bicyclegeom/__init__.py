"""Discrete bicycle correspondence on closed polygons.

Propagation of a frame segment around a polygon, the induced closed
transformation and its Moebius/Lorentz monodromy, conserved quantities,
recutting, rear-track circle chains, and the special families with
closed-form dynamics.
"""

from .dynamics import (
    BicyclePair,
    Branch,
    PropagationResult,
    angle_sequence,
    bianchi_fourth_polygon,
    butterfly_fourth,
    correspondence_check,
    frame_length,
    propagate,
    recut,
    transform,
    verify_difference_equation,
)
from .errors import (
    ChordTooLong,
    ClosureFailure,
    DegenerateLine,
    DegenerateMonodromy,
    DegenerateTriangle,
    DimensionMismatch,
    EllipticMonodromy,
    GeometryError,
    NoRealFixedPoint,
    NotConcentricAlternating,
    PoleAtEllEqualsA,
    PoleOnChain,
    SignAssignmentFailure,
    WrongArity,
    ZeroArea,
)
from .families import (
    CyclicClassification,
    NGonSpec,
    QuadClassification,
    RigidReport,
    classify_cyclic,
    classify_quadrilateral,
    concentric_transform,
    ngon_construct,
    ngon_residuals,
    ngon_verify,
    rigid_check,
    rotation_transform,
)
from .fileio import load_polygon, save_polygon
from .geometry import (
    DEFAULT_TOL,
    Polygon,
    Tolerance,
    bicycle_step,
    is_darboux_butterfly,
    perp_bisector_reflect,
)
from .invariants import (
    Bivector,
    RearTrack,
    area_bivector,
    chain_reconstruct,
    circumcenter_of_mass,
    eigenvalue_products,
    j_vector,
    rear_track,
    signed_area,
    triangle_circumcenter,
)
from .monodromy import (
    ALL_DIRECTIONS,
    FixedDirection,
    LorentzMatrix,
    Mobius2,
    MonodromyClass,
    TracePoly,
    classification_scan,
    classify,
    discriminant,
    edge_lorentz,
    fixed_directions,
    lorentz_fixed_directions,
    lorentz_monodromy,
    polygon_monodromy,
    refine_class_boundaries,
    trace_polynomial,
)

__version__ = "0.1.0"

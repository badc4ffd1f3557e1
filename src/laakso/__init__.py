"""Exact geometry of Laakso-type spaces.

Construct a space of any dimension strictly between 1 and 2 as a quotient
of (Cantor-like attractor) x (unit interval), then compute geodesic
distances and explicit shortest paths in exact rational arithmetic, with an
independent brute-force graph oracle for verification.
"""

from .errors import (
    InfeasibleSequence,
    InvariantViolation,
    NoLevelFound,
    NotRepresentable,
    ParseError,
    PrecisionExhausted,
    ResourceLimit,
)
from .fractal import (
    Address,
    DifferenceOrders,
    difference_orders,
    format_address,
    parse_address,
    value,
)
from .geodesic import (
    Jump,
    MinimalInterval,
    PathRep,
    Segment,
    Tail,
    classify,
    connect,
    distance,
    geodesic_path,
    minimal_interval,
    path_length,
)
from .numeric import Interval, ScaleFactor, iroot
from .space import Point, Space
from .wormhole import (
    MSequence,
    WormholeLevel,
    classify_height,
    first_in_interval,
    last_in_interval,
    levels_in_range,
    nearest,
    omega_value,
)

__all__ = [
    "Address",
    "DifferenceOrders",
    "InfeasibleSequence",
    "Interval",
    "InvariantViolation",
    "Jump",
    "MSequence",
    "MinimalInterval",
    "NoLevelFound",
    "NotRepresentable",
    "ParseError",
    "PathRep",
    "Point",
    "PrecisionExhausted",
    "ResourceLimit",
    "ScaleFactor",
    "Segment",
    "Space",
    "Tail",
    "WormholeLevel",
    "classify",
    "classify_height",
    "connect",
    "difference_orders",
    "distance",
    "first_in_interval",
    "format_address",
    "geodesic_path",
    "iroot",
    "last_in_interval",
    "levels_in_range",
    "minimal_interval",
    "nearest",
    "omega_value",
    "parse_address",
    "path_length",
    "value",
]

__version__ = "0.1.0"

"""Determinants and characteristic polynomials of twisted quiver Laplacians
via trace and cycle identities, cross-validated against dense linear algebra,
exactly, symbolically, and in floating point."""

from .errors import HolodetError, InvariantViolation, MethodRefusal, ValidationError
from .ring import GaussianRational, Poly, Symbols, int_div, poly_eval
from .linalg import BlockMatrix, Matrix, charpoly_oracle, det_oracle, product_traces
from .walks import (
    CycleMultiset,
    CyclicWalk,
    GCycle,
    enumerate_gcycle_multisets,
    enumerate_walk_multisets,
    prime_cycles,
    prime_finiteness,
)
from .quiver import (
    Edge,
    Quiver,
    Representation,
    gen_example,
    haar_like_unitary,
    validate,
    vertex_z,
)

__version__ = "0.1.0"

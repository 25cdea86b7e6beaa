"""Exact semi-stability certificates for rank-2 extensions on curves.

The pipeline: build a hyperelliptic curve y^2 = f(x) over Q or a finite
field, compute Riemann-Roch spaces exactly, assemble extension data
(N, M) with 2M ~ N+K, and decide semi-stability of extension classes
through boundary-matrix determinants, secant-variety membership, and
explicit destabilizer searches.  Everything is exact; no floats enter
any kernel.
"""

from .bounds import (BoundInputs, Theorem2Result, clifford_sandwich,
                     compute_m, theorem1_delta0, theorem2_bound)
from .curves import (CurvePoint, Divisor, HyperellipticCurve, curve_from_json,
                     curve_to_json, divisor_from_json, divisor_to_json,
                     enumerate_closed_points, enumerate_effective_divisors,
                     make_curve, point_from_json, point_to_json, valuation)
from .errors import (CurvextError, ExhaustionError, InputError, InternalError,
                     MembershipError, NotApplicable)
from .extensions import (BoundaryMatrix, ExtensionClass, ExtensionDatum,
                         Prop1Certificate, ScanResult, SearchResult,
                         boundary_matrix, brute_force_destabilizer,
                         class_from_json, class_to_json, datum_from_json,
                         datum_to_json, det_test, make_datum,
                         prop1_certificate, search_semistable,
                         subspace_from_json)
from .fields import (ExtensionField, FieldDescriptor, PrimeField, Rationals,
                     field_from_json, field_to_json)
from .linalg import Matrix, kernel_basis, rank, rref
from .polys import Poly, hensel_sqrt, iter_monic, iter_monic_irreducible
from .riemann_roch import (PrincipalityResult, RationalFunction, RRBasis,
                           coordinates, function_to_json, h0, h1,
                           is_principal, rr_basis)
from .secant import (OffsecantReport, offsecant_experiment, sample_subspace,
                     secant_member, secant_table)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

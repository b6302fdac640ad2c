"""Exact-arithmetic biorthogonal polynomial family and its operator triple.

The package builds a family of monic polynomials P_n and Laurent partners
R_n from a rational parameter triple (q, a, b), realizes the q-difference
operators X, Y, Z for which Y P_n = lambda_n X P_n, restricts everything
to a finite geometric grid where the families are biorthogonal, and
verifies the full web of identities (eigenvalue problem, q-difference
equation, recurrences, contiguity, adjoints, biorthogonality, operator
algebra relations, Casimir centrality, pencil subalgebra) with exact
rational equality; there are no tolerances anywhere.
"""

from .qcore import (
    LaurentPoly,
    ParameterError,
    QParams,
    ResonantParameterError,
    format_rational,
    parse_rational,
    q_pochhammer,
    x,
)
from .pastro import (
    ScalarRow,
    baxter_system,
    biorthogonal_partner,
    grid_weights,
    partner_family,
    pastro_family,
    pastro_poly,
    scalar_rows,
    verify_baxter_consistency,
)
from .qdiff import (
    DegreeRecord,
    QDiffOperator,
    degree_records,
    make_operators,
    verify_contiguity,
    verify_gevp,
    verify_qdiff_equation,
    verify_recurrence,
)
from .biorth import (
    GridRep,
    make_grid_rep,
    tau_conjugate,
    tau_parameter,
    verify_adjoint_gevp,
    verify_adjoint_structure,
    verify_biorthogonality,
)
from .algebra import (
    AlgebraConstants,
    AlgebraRep,
    casimir_centrality,
    casimir_element,
    make_algebra_rep,
    qhahn_embedding,
    verify_affine_relations,
    verify_raw_relations,
)
from .report import Check, Report

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "ParameterError",
    "QParams",
    "ResonantParameterError",
    "format_rational",
    "parse_rational",
    "q_pochhammer",
    "x",
    "ScalarRow",
    "baxter_system",
    "biorthogonal_partner",
    "grid_weights",
    "partner_family",
    "pastro_family",
    "pastro_poly",
    "scalar_rows",
    "verify_baxter_consistency",
    "DegreeRecord",
    "QDiffOperator",
    "degree_records",
    "make_operators",
    "verify_contiguity",
    "verify_gevp",
    "verify_qdiff_equation",
    "verify_recurrence",
    "GridRep",
    "make_grid_rep",
    "tau_conjugate",
    "tau_parameter",
    "verify_adjoint_gevp",
    "verify_adjoint_structure",
    "verify_biorthogonality",
    "AlgebraConstants",
    "AlgebraRep",
    "casimir_centrality",
    "casimir_element",
    "make_algebra_rep",
    "qhahn_embedding",
    "verify_affine_relations",
    "verify_raw_relations",
    "Check",
    "Report",
    "__version__",
]

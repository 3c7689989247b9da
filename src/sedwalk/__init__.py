"""Continuous-time quantum walks on weighted graphs: sedentary, PST, PGST.

The package classifies vertices by what the walk does to the amplitude it
keeps at home: staying put (sedentary, with an explicit constant), leaving
completely at a finite time (perfect state transfer), or leaving completely
only in the limit (pretty good state transfer).  Exact spectral and
number-theoretic criteria drive the verdicts; dense numerics only confirm.
"""

from __future__ import annotations

from .dsl import parse_graph
from .families import (
    FamilyVerdict,
    ThresholdSpec,
    complete_product_verdict,
    km_product_transfer,
    multipartite_adjacency_verdict,
    multipartite_laplacian_verdict,
    threshold_pst_congruences,
    threshold_support,
    threshold_vertex_verdict,
)
from .graphs import (
    ADJACENCY,
    LAPLACIAN,
    MatrixKind,
    WeightedGraph,
    blow_up,
    cartesian_product,
    cocktail_party,
    complete,
    complete_multipartite,
    cycle,
    direct_product,
    disjoint_union,
    empty,
    from_edge_list_text,
    join,
    path,
    star,
    threshold,
    to_edge_list_text,
)
from .numtheory import (
    ExactEigenvalue,
    QuadraticIntegerForm,
    fraction_gcd,
    gcd_set,
    integer_kernel_basis,
    integer_relation_parity,
    is_perfect_square,
    nu2,
    nu2_fraction,
    periodic_form,
    recognize_values,
    square_free_part,
)
from .sedentary import (
    EqualityTime,
    RealDiagonalInfimum,
    SedentaryBound,
    Verdict,
    VertexClassification,
    bipartite_double_sedentary,
    blowup_bound,
    blowup_pair_parity,
    classify_all,
    classify_vertex,
    double_cone_real_minimum,
    equality_time_criterion,
    join_sedentary_transfer,
    projection_sum_bound,
    real_diagonal_zero_search,
)
from .spectral import (
    EigenvalueSupport,
    LaplacianProductUnsupported,
    SpectralDecomposition,
    StrongCospectrality,
    decompose,
)
from .twins import (
    ThetaEigenspaceSplit,
    TwinBranch,
    TwinSet,
    are_twins,
    find_twin_sets,
    theta_split,
    twin_dichotomy,
    twin_set_of,
)
from .walk import (
    InfimumEstimate,
    InfimumMode,
    WalkEvaluator,
    complete_product_cosine_terms,
    complete_product_diagonal,
    join_perturbation_bound,
    product_diagonal_km_y,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "ADJACENCY",
    "LAPLACIAN",
    "MatrixKind",
    "WeightedGraph",
    "blow_up",
    "cartesian_product",
    "cocktail_party",
    "complete",
    "complete_multipartite",
    "cycle",
    "direct_product",
    "disjoint_union",
    "empty",
    "from_edge_list_text",
    "join",
    "parse_graph",
    "path",
    "star",
    "threshold",
    "to_edge_list_text",
    # number theory
    "ExactEigenvalue",
    "QuadraticIntegerForm",
    "fraction_gcd",
    "gcd_set",
    "integer_kernel_basis",
    "integer_relation_parity",
    "is_perfect_square",
    "nu2",
    "nu2_fraction",
    "periodic_form",
    "recognize_values",
    "square_free_part",
    # spectral + walk
    "EigenvalueSupport",
    "InfimumEstimate",
    "InfimumMode",
    "LaplacianProductUnsupported",
    "SpectralDecomposition",
    "StrongCospectrality",
    "WalkEvaluator",
    "complete_product_cosine_terms",
    "complete_product_diagonal",
    "decompose",
    "join_perturbation_bound",
    "product_diagonal_km_y",
    # twins
    "ThetaEigenspaceSplit",
    "TwinBranch",
    "TwinSet",
    "are_twins",
    "theta_split",
    "find_twin_sets",
    "twin_dichotomy",
    "twin_set_of",
    # classification
    "EqualityTime",
    "RealDiagonalInfimum",
    "SedentaryBound",
    "Verdict",
    "VertexClassification",
    "bipartite_double_sedentary",
    "blowup_bound",
    "blowup_pair_parity",
    "classify_all",
    "classify_vertex",
    "double_cone_real_minimum",
    "equality_time_criterion",
    "join_sedentary_transfer",
    "projection_sum_bound",
    "real_diagonal_zero_search",
    # families
    "FamilyVerdict",
    "ThresholdSpec",
    "complete_product_verdict",
    "km_product_transfer",
    "multipartite_adjacency_verdict",
    "multipartite_laplacian_verdict",
    "threshold_pst_congruences",
    "threshold_support",
    "threshold_vertex_verdict",
]

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
    periodic_form,
    recognize_values,
    square_free_part,
)
from .sedentary import (
    SedentaryBound,
    Verdict,
    VertexClassification,
    classify_all,
    classify_vertex,
    equality_time_criterion,
    projection_sum_bound,
)
from .spectral import (
    EigenvalueSupport,
    SpectralDecomposition,
    StrongCospectrality,
    decompose,
)
from .twins import (
    TwinDichotomy,
    TwinSet,
    are_twins,
    find_twin_sets,
    twin_dichotomy,
)
from .walk import (
    InfimumEstimate,
    InfimumMode,
    WalkEvaluator,
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
    "periodic_form",
    "recognize_values",
    "square_free_part",
    # spectral + walk
    "EigenvalueSupport",
    "InfimumEstimate",
    "InfimumMode",
    "SpectralDecomposition",
    "StrongCospectrality",
    "WalkEvaluator",
    "decompose",
    # twins
    "TwinDichotomy",
    "TwinSet",
    "are_twins",
    "find_twin_sets",
    "twin_dichotomy",
    # classification
    "SedentaryBound",
    "Verdict",
    "VertexClassification",
    "classify_all",
    "classify_vertex",
    "equality_time_criterion",
    "projection_sum_bound",
    # families
    "FamilyVerdict",
    "ThresholdSpec",
    "complete_product_verdict",
    "multipartite_adjacency_verdict",
    "multipartite_laplacian_verdict",
    "threshold_pst_congruences",
    "threshold_support",
    "threshold_vertex_verdict",
]

"""lamtool: train track maps, substitution languages and boundary covering
bounds for free group automorphisms."""

__version__ = "0.1.0"

from .words import EdgeAlphabet
from .graphs import CollapseData, MarkedMetricGraph, maximal_subtree
from .graphmaps import (GraphSelfMap, analyze_matrix, conjugacy_growth,
                        is_train_track, orientability, transition_matrix)
from .substitutions import (Substitution, complexity_counts, eigenray_prefix,
                            factor_language, from_train_track,
                            growth_equivalence_witness)
from .laminations import (LaminaryLanguage, attracting_language, beta_metric,
                          transport_compare)
from .boundary import cover_bound_series, dim_upper_estimate

__all__ = [
    "__version__",
    "EdgeAlphabet",
    "MarkedMetricGraph", "CollapseData", "maximal_subtree",
    "GraphSelfMap", "is_train_track", "transition_matrix", "analyze_matrix",
    "orientability", "conjugacy_growth",
    "Substitution", "from_train_track", "eigenray_prefix",
    "factor_language", "complexity_counts", "growth_equivalence_witness",
    "LaminaryLanguage", "attracting_language", "beta_metric",
    "transport_compare",
    "cover_bound_series", "dim_upper_estimate",
]

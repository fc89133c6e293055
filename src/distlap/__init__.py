"""Distance Laplacian spectra, chromatic data, and spectral-bound checkers."""

from distlap.graphs import (
    Graph,
    canonical_form,
    complement,
    enumerate_connected,
    gen_complete_multipartite,
    gen_named,
    is_complete_multipartite,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from distlap.metric import distance_laplacian, distance_stack
from distlap.eigen import count_at_least, eig_symmetric, multiplicity
from distlap.coloring import max_ell1_colors, optimal_colors
from distlap.twins import TwinClass
from distlap.verify import CheckResult, GraphAnalysis, analyze, analyze_many, audit_extremal, sweep

__version__ = "0.1.0"

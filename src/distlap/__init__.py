"""Distance Laplacian spectra, chromatic data, and spectral-bound checkers."""

from distlap.graphs import (
    Graph,
    add_edge,
    canonical_form,
    complement,
    connected_components,
    delete_edge,
    enumerate_connected,
    gen_complete_multipartite,
    gen_named,
    is_complete_multipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from distlap.metric import DistanceData, apsp, diameter, distance_laplacian
from distlap.eigen import (
    count_in_interval,
    eig_symmetric,
    mu_at,
    mu_below,
    multipartite_spectrum_closed_form,
    spectrum,
)
from distlap.coloring import ColoringResult, chromatic_number, is_proper, max_ell1_coloring, optimal_coloring
from distlap.twins import TwinClass, complement_component_count, twin_classes, universal_vertex_count
from distlap.verify import CheckResult, GraphAnalysis, analyze, audit_extremal, run_all

__version__ = "0.1.0"

import random

from distlap.eigen import multiplicity
from distlap.graphs import (
    gen_complete,
    gen_cycle,
    gen_double_star,
    gen_g_clq,
    gen_g_ind,
    gen_path,
)
from distlap.metric import distance_stack
from distlap.twins import complement_component_count
from distlap.verify import analyze
from helpers import universal_vertex_count


def test_g_ind_independent_twins():
    classes = analyze(gen_g_ind()).twins
    assert len(classes) == 1
    t = classes[0]
    assert t.kind == "independent"
    assert t.members == (2, 3, 4, 5)
    assert t.external == (0, 1)
    assert t.transmission == 10
    assert t.forced_value == 12 and t.forced_mult == 3


def test_g_clq_clique_twins_maximal_class():
    # vertex 4 shares the closed neighborhood of the triangle 0,1,2, so the
    # maximal clique-twin class has four members and external neighborhood {3}
    classes = analyze(gen_g_clq()).twins
    assert len(classes) == 1
    t = classes[0]
    assert t.kind == "clique"
    assert t.members == (0, 1, 2, 4)
    assert t.external == (3,)
    assert t.transmission == 13
    assert t.forced_value == 14 and t.forced_mult == 3


def test_p4_has_no_twins():
    assert analyze(gen_path(4)).twins == ()


def test_k2_whole_graph_is_clique_twin_class():
    classes = analyze(gen_complete(2)).twins
    assert len(classes) == 1
    assert classes[0].kind == "clique" and classes[0].external == ()


def test_p3_leaves_are_independent_twins():
    classes = analyze(gen_path(3)).twins
    assert len(classes) == 1
    t = classes[0]
    assert t.kind == "independent" and t.members == (0, 2) and t.external == (1,)
    assert t.forced_value == 5 and t.forced_mult == 1


def test_transmission_constant_across_classes(corpus_analyses):
    for analyses in corpus_analyses.values():
        transmissions = distance_stack([a.graph for a in analyses]).sum(axis=2)
        for a, tr in zip(analyses, transmissions, strict=True):
            for t in a.twins:
                assert all(tr[v] == t.transmission for v in t.members)
                if t.kind == "independent":
                    assert t.external  # connected graphs force a common neighbor


def test_forced_eigenvalues_realized(corpus_analyses):
    for analyses in corpus_analyses.values():
        twins = [(a, t) for a in analyses for t in a.twins]
        if not twins:
            continue
        assert all(multiplicity(a.values[::-1], t.forced_value) >= t.forced_mult
                   for a, t in twins)


def test_complement_component_count():
    assert complement_component_count(gen_complete(6)) == 6
    assert complement_component_count(gen_double_star(4, 1)) == 2  # K_{1,4}
    assert complement_component_count(gen_path(8)) == 1


def test_universal_vertex_count():
    assert universal_vertex_count(gen_complete(5)) == 5
    assert universal_vertex_count(gen_double_star(4, 1)) == 1
    assert universal_vertex_count(gen_cycle(5)) == 0


def test_n_multiplicity_equals_complement_components(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        mults = [multiplicity(a.values[::-1], n) for a in analyses]
        assert mults == [a.complement_components - 1 for a in analyses]


def test_universal_bound_on_corpus(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        for a in analyses:
            c = a.complement_components
            p = a.universal_vertices
            assert p <= c
            if a.m < n * (n - 1) // 2:
                assert c >= p + 1


def test_twin_kinds_never_overlap():
    rng = random.Random(17)
    from helpers import random_connected_graph
    for _ in range(40):
        g = random_connected_graph(rng, 2, 9)
        seen = set()
        for t in analyze(g).twins:
            for v in t.members:
                assert v not in seen
                seen.add(v)

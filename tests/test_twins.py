import random

from distlap.eigen import multiplicity
from distlap.graphs import (
    Graph,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_double_star,
    gen_g_clq,
    gen_g_ind,
    gen_path,
    relabel,
)
from distlap.metric import distance_stack
from distlap.twins import complement_component_count, twin_classes
from distlap.verify import analyze
from helpers import (
    brute_force_twin_classes,
    random_permutation,
    stacked_twin_classes,
    twin_entries,
    universal_vertex_count,
)


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


def test_stacked_twin_classes_match_the_brute_force_oracle():
    # hand-built stacks: n = 1 and 2; n = 64 with classes that hold vertex 63,
    # the top bit of a uint64 mask, of both kinds; graphs with both kinds and
    # with three or more classes. Each stack also holds seeded relabelings of
    # its graphs, so that classes of both kinds interleave by least member.
    # Every graph is grouped in its stack, alone in a stack of one, and alone
    # by twin_classes. A twin table keeps each class's kind, size, |external|
    # and transmission, in least-member order; twin_classes its members too
    def tail_twins(n):  # the path 0 .. n - 3, and n - 2, n - 1 joined to its end and each other
        edges = [(v, v + 1) for v in range(n - 3)]
        return Graph.from_edges(n, edges + [(n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)])

    rng = random.Random(28)
    stacks = [
        [gen_complete(1), gen_complete(1)],
        [gen_complete(2), gen_complete(2)],
        [gen_complete_multipartite([1, 1, 2, 2]), gen_complete_multipartite([2, 2, 2]),
         gen_path(6), gen_double_star(3, 3), gen_complete(6), tail_twins(6)],
        [gen_complete_multipartite([1, 63]), gen_complete_multipartite([1, 1, 31, 31]),
         gen_complete_multipartite([2, 30, 32]), tail_twins(64), gen_path(64), gen_complete(64)],
    ]
    covered = set()
    for stack in stacks:
        n = stack[0].n
        stack += [relabel(g, random_permutation(rng, n)) for g in stack for _ in range(3)]
        dist = distance_stack(stack)
        transmissions = dist.sum(axis=2).tolist()
        stacked = stacked_twin_classes(dist == 1, transmissions)
        assert len(stacked) == len(stack)
        for b, (g, tr, entries) in enumerate(zip(stack, transmissions, stacked)):
            classes = tuple(brute_force_twin_classes(g, tr))
            assert entries == twin_entries(classes)
            assert stacked_twin_classes(dist[b:b + 1] == 1, [tr]) == [entries]
            assert twin_classes(g, tr) == classes  # one graph, as analyze groups it
            covered.add(("n", n))
            covered.update(("63", t.kind) for t in classes if 63 in t.members)
            if len({t.kind for t in classes}) == 2:
                covered.add("both kinds")
            if len(classes) >= 3:
                covered.add("three classes")
    assert covered == {("n", 1), ("n", 2), ("n", 6), ("n", 64), ("63", "clique"),
                       ("63", "independent"), "both kinds", "three classes"}


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

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlap.graphs import (
    Graph,
    add_edge,
    canonical_form,
    complement,
    connected_components,
    delete_edge,
    enumerate_connected,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_double_star,
    gen_named,
    gen_path,
    is_complete_multipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    relabel,
    to_graph6,
)
from helpers import brute_force_connected_classes, random_graph, random_permutation


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def test_parse_graph6_triangle():
    g = parse_graph6("Bw")
    assert g.n == 3
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6


def test_parse_graph6_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_to_graph6_examples():
    assert to_graph6(gen_complete(3)) == "Bw"
    assert to_graph6(Graph(1, [0])) == "@"
    assert to_graph6(complement(gen_complete(3))) == "B?"


@pytest.mark.parametrize("bad", [
    "",            # empty record
    "Bwx",         # trailing garbage
    "B",           # truncated body
    "B" + chr(30), # data byte out of range
    "~~~~~",       # size beyond the supported range
])
def test_parse_graph6_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_graph6(bad)


def test_parse_graph6_rejects_n_over_64():
    # long-form size encoding for n = 65
    record = "~" + chr(63) + chr(63 + 1) + chr(63 + 1)
    with pytest.raises(ValueError):
        parse_graph6(record)


def test_graph6_round_trip_on_small_corpus():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert parse_graph6(to_graph6(g)) == g


def test_graph6_agrees_with_networkx_codec():
    # independent reference codec for the bit-packing convention
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        ref = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(ref.edges()) == {tuple(e) for e in g.edges()}
        assert ref.number_of_nodes() == g.n


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 13), st.data())
def test_graph6_round_trip_random(n, data):
    pair_count = n * (n - 1) // 2
    mask = data.draw(st.integers(0, (1 << pair_count) - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [pairs[i] for i in range(pair_count) if mask >> i & 1])
    assert parse_graph6(to_graph6(g)) == g


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

def test_parse_edge_list_path():
    g = parse_edge_list("3\n0 1\n1 2")
    assert g == gen_path(3)


def test_parse_edge_list_duplicates_collapse():
    g = parse_edge_list("2\n0 1\n1 0")
    assert g.m == 1


def test_parse_edge_list_star():
    g = parse_edge_list("4\n0 1\n0 2\n0 3")
    assert g.degree(0) == 3 and g.m == 3


def test_parse_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 3")
    with pytest.raises(ValueError):
        parse_edge_list("3\n1 1")


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)


def test_graph_pickles():
    # corpus workers receive parsed graphs from the parent process
    g = gen_cycle(5)
    h = pickle.loads(pickle.dumps(g))
    assert (h.n, h.adj) == (g.n, g.adj)
    with pytest.raises(AttributeError):
        h.n = 3


# ---------------------------------------------------------------------------
# complement, components, edge edits
# ---------------------------------------------------------------------------

def test_complement_examples():
    assert complement(gen_complete(4)).m == 0
    c5 = gen_cycle(5)
    assert canonical_form(complement(c5)) == canonical_form(c5)
    p4 = gen_path(4)
    assert canonical_form(complement(p4)) == canonical_form(p4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_complement_involution_and_edge_count(n, rnd):
    g = random_graph(rnd, n, 0.5)
    assert complement(complement(g)) == g
    assert g.m + complement(g).m == n * (n - 1) // 2


def test_connected_components():
    assert len(connected_components(gen_complete(5))) == 1
    assert len(connected_components(complement(gen_complete(5)))) == 5
    comps = connected_components(complement(gen_named("double_star", 4, 1)))  # K_{1,4}
    assert sorted(len(c) for c in comps) == [1, 4]


def test_delete_add_edge():
    k3 = gen_complete(3)
    p3 = delete_edge(k3, 0, 1)
    assert p3.m == 2 and not p3.has_edge(0, 1)
    assert add_edge(p3, 0, 1) == k3
    assert not is_connected(delete_edge(gen_path(3), 0, 1))
    with pytest.raises(ValueError):
        delete_edge(p3, 0, 1)
    with pytest.raises(ValueError):
        add_edge(k3, 0, 1)
    with pytest.raises(ValueError):
        add_edge(k3, 1, 1)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_complete_multipartite():
    g = gen_complete_multipartite([2, 2, 1, 1, 1])
    assert g.n == 7
    assert gen_complete_multipartite([1] * 5) == gen_complete(5)
    assert gen_complete_multipartite([3, 5]).m == 15


def test_gen_named_examples():
    g_ind = gen_named("G_ind")
    assert g_ind.n == 7 and g_ind.m == 10
    g_clq = gen_named("G_clq")
    assert g_clq.n == 8
    s = gen_named("comp_S62")
    assert s.n == 8 and is_connected(s)
    ds = gen_double_star(6, 2)
    assert ds.n == 8 and ds.degree(0) == 6 and ds.degree(1) == 2 and ds.has_edge(0, 1)
    with pytest.raises(ValueError):
        gen_named("petersen")
    with pytest.raises(ValueError):
        gen_named("path")  # missing parameter


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_p3_all_labelings():
    import itertools
    forms = set()
    for perm in itertools.permutations(range(3)):
        g = Graph.from_edges(3, [(perm[0], perm[1]), (perm[1], perm[2])])
        forms.add(canonical_form(g))
    assert len(forms) == 1


def test_canonical_form_distinguishes_p4_from_star():
    assert canonical_form(gen_path(4)) != canonical_form(gen_named("double_star", 3, 1))


def test_canonical_form_orbit_invariance():
    # 50 random graphs, 100 random relabelings total
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        base = canonical_form(g)
        for _ in range(2):
            assert canonical_form(relabel(g, random_permutation(rng, g.n))) == base


def test_canonical_form_guard():
    with pytest.raises(ValueError):
        canonical_form(gen_path(9))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_connected_counts():
    counts = [sum(1 for _ in enumerate_connected(n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]


def test_enumerate_matches_brute_force_up_to_5():
    for n in range(1, 6):
        ours = {canonical_form(g) for g in enumerate_connected(n)}
        assert ours == brute_force_connected_classes(n)


def test_enumerate_connected_fixtures(tmp_path):
    assert sum(1 for _ in enumerate_connected(7)) == 853
    assert sum(1 for _ in enumerate_connected(8)) == 11117
    with pytest.raises(FileNotFoundError):
        list(enumerate_connected(7, corpus_dir=tmp_path))
    with pytest.raises(ValueError):
        list(enumerate_connected(9))


def test_fixture_graphs_are_connected_and_canonical():
    seen = set()
    for g in enumerate_connected(7):
        assert g.n == 7 and is_connected(g)
        form = canonical_form(g)
        assert form not in seen
        seen.add(form)


# ---------------------------------------------------------------------------
# complete multipartite recognition
# ---------------------------------------------------------------------------

def test_is_complete_multipartite_examples():
    assert is_complete_multipartite(gen_complete_multipartite([4, 4, 2])) == (4, 4, 2)
    assert is_complete_multipartite(gen_complete(6)) == (1,) * 6
    assert is_complete_multipartite(gen_path(4)) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_multipartite_round_trip(parts):
    expected = tuple(sorted(parts, reverse=True))
    assert is_complete_multipartite(gen_complete_multipartite(parts)) == expected

import gc
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlap.graphs import (
    Graph,
    canonical_form,
    complement,
    connected_components,
    enumerate_connected,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_double_star,
    gen_named,
    gen_path,
    graphs_from_stack,
    is_complete_multipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    relabel,
    to_graph6,
)
from distlap.graphs import _bits, _connected_classes_g6, _fixture_lines
from helpers import brute_force_connected_classes, random_graph, random_permutation, toggle_edge


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


# one malformed record per rejection branch, with the message it must give
MALFORMED_GRAPH6 = {
    "": "empty graph6 record",
    "B\u00e9": "non-ASCII",
    "~~~~~": "size exceeds supported range",
    "~??": "malformed graph6 length bytes",  # long size form cut short
    "~?!?": "malformed graph6 length bytes",  # long size byte out of range
    "!": "malformed graph6 length byte$",
    "?": r"empty graph \(n=0\)",
    "Bwx": "trailing garbage",
    "B": "truncated graph6 record",
    "B!": "invalid graph6 data byte 33",
    "Bx": "nonzero padding bits",
    # only ASCII space, tab, CR and LF are trimmed
    "Bw\x1f": "trailing garbage",
    "\x85Bw ": "non-ASCII",
    "Bw\u2003": "non-ASCII",
}


@pytest.mark.parametrize("bad", list(MALFORMED_GRAPH6))
def test_parse_graph6_rejects_malformed(bad):
    with pytest.raises(ValueError, match=MALFORMED_GRAPH6[bad]):
        parse_graph6(bad)


def test_parse_graph6_rejects_n_over_64():
    # long-form size encoding for n = 65
    record = "~" + chr(63) + chr(63 + 1) + chr(63 + 1)
    with pytest.raises(ValueError, match="n=65 > 64"):
        parse_graph6(record)


def test_graph6_round_trip_on_small_corpus():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert parse_graph6(to_graph6(g)) == g


def test_graph6_agrees_with_networkx_codec():
    # independent reference codec for the bit-packing convention, both ways:
    # networkx reads what we write and we read what networkx writes, for every
    # n up to 64; it writes n >= 63 in the "~" long size form
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for n in [rng.randint(1, 12) for _ in range(50)] + list(range(13, 65)):
        g = random_graph(rng, n, rng.random())
        ref = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(ref.edges()) == {tuple(e) for e in g.edges()}
        assert ref.number_of_nodes() == g.n
        written = nx.to_graph6_bytes(ref, nodes=range(n), header=False).decode()
        assert written.startswith("~") == (n >= 63)
        parsed = parse_graph6(written)
        assert parsed == g and parsed.m == g.m


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
    with pytest.raises(ValueError, match=r"edge \(0,3\) out of range for n=3"):
        parse_edge_list("3\n0 3")
    with pytest.raises(ValueError, match="self-loop line '1 1'"):
        parse_edge_list("3\n1 1")
    with pytest.raises(ValueError, match="^empty edge list$"):
        parse_edge_list(" \n\n")
    with pytest.raises(ValueError, match="^bad edge line '1 x'$"):
        parse_edge_list("3\n1 x")
    with pytest.raises(ValueError, match="^bad edge line '0 1 2'$"):
        parse_edge_list("3\n0 1 2")
    # ASCII decimal numerals only: int() would read these as other numbers
    with pytest.raises(ValueError, match="^first line must be the vertex count, got '1_0'$"):
        parse_edge_list("1_0\n0 \u0663\n")
    with pytest.raises(ValueError, match=r"^first line must be the vertex count, got '\+3'$"):
        parse_edge_list("+3\n0 +1\n")
    with pytest.raises(ValueError, match="^bad edge line '0 \u0663'$"):
        parse_edge_list("4\n0 \u0663\n")
    with pytest.raises(ValueError, match=r"^bad edge line '0 \+1'$"):
        parse_edge_list("3\n0 +1\n")
    with pytest.raises(ValueError, match="^bad edge line '1_0 2'$"):
        parse_edge_list("11\n1_0 2\n")
    with pytest.raises(ValueError, match="^bad edge line '-1 2'$"):
        parse_edge_list("3\n-1 2\n")


def test_parse_edge_list_splits_at_line_feeds_and_ascii_blanks_only():
    # CRLF line ends, tabs and repeated spaces pass
    assert parse_edge_list("3\r\n0 1\r\n1\t 2\r\n") == gen_path(3)
    # any other line break or blank stays in its line: this is one bad line, not P3
    with pytest.raises(ValueError, match=r"^bad edge line '0 1\\x851 2'$"):
        parse_edge_list("3\n0 1\x851 2\n")
    for blank in ("\x0b", "\x0c", "\u2028", "\xa0"):
        with pytest.raises(ValueError, match="^bad edge line"):
            parse_edge_list(f"3\n0{blank}1\n")


def test_parse_edge_list_checks_vertex_count_first():
    # the count line is refused before any edge line is read
    with pytest.raises(ValueError, match="vertex count"):
        parse_edge_list("1000\n0 1\nnot an edge\n")
    with pytest.raises(ValueError, match=r"1\.\.64"):
        parse_edge_list("1000000000\n")


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)


@pytest.mark.parametrize("n", [0, 65, 10**12])
def test_from_edges_checks_vertex_count_first(n):
    # refused before a list of n neighbor masks is made
    with pytest.raises(ValueError, match=rf"^vertex count must be in 1\.\.64, got {n}$"):
        Graph.from_edges(n, [])


def test_parsed_graphs_pass_the_checks_parsing_skips():
    # parse_graph6 builds its masks symmetric and skips Graph's validation
    for n in range(1, 8):
        for g in enumerate_connected(n):
            checked = Graph(g.n, g.adj)
            assert g == checked and g.m == checked.m


def test_graph_pickles():
    # corpus workers receive parsed graphs from the parent process
    g = gen_cycle(5)
    h = pickle.loads(pickle.dumps(g))
    assert (h.n, h.adj) == (g.n, g.adj)
    with pytest.raises(AttributeError):
        h.n = 3
    # a parsed graph keeps its edge count and its graph6 text
    g = parse_graph6("G~{OGC")
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.m == g.m and h._graph6 == "G~{OGC" == to_graph6(h)
    with pytest.raises(AttributeError):
        h.m = 0


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


def _shift_bits(mask):
    out = []
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            out.append(i)
    return out


def test_bits_matches_a_shift_loop():
    rng = random.Random(8)
    masks = [0, (1 << 64) - 1]
    masks += [1 << i for i in range(64)]
    # around every byte boundary: the bits just below and just above it
    masks += [m for k in range(8, 64, 8) for m in ((1 << k) - 1, 1 << k, 3 << (k - 1),
                                                  ((1 << 64) - 1) ^ (1 << k))]
    masks += [rng.getrandbits(64) for _ in range(1000)]
    for mask in masks:
        got = _bits(mask)
        assert type(got) is list
        assert got == _shift_bits(mask), hex(mask)


def test_connected_components():
    assert len(connected_components(gen_complete(5))) == 1
    assert len(connected_components(complement(gen_complete(5)))) == 5
    comps = connected_components(complement(gen_named("double_star", 4, 1)))  # K_{1,4}
    assert sorted(len(c) for c in comps) == [1, 4]


def test_delete_add_edge():
    k3 = gen_complete(3)
    p3 = toggle_edge(k3, 0, 1)
    assert p3.m == 2 and not p3.has_edge(0, 1)
    assert toggle_edge(p3, 1, 0) == k3
    assert not is_connected(toggle_edge(gen_path(3), 0, 1))
    with pytest.raises(ValueError, match="self-loop"):
        toggle_edge(k3, 1, 1)


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


def test_gen_named_refuses_oversized_parameter_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"1\.\.64"):
            gen_named("path", 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    for name, params in (("cycle", (65,)), ("complete", (65,)), ("double_star", (3, 65))):
        with pytest.raises(ValueError, match=r"1\.\.64"):
            gen_named(name, *params)


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


def test_canonical_form_leaves_no_reference_cycles():
    # the ordering search is a closure that calls itself, as the colorings are
    g = gen_named("G_clq")
    gc.collect()
    gc.disable()
    try:
        canonical_form(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # the right line count, but one line holds a 6-vertex graph
    lines = [to_graph6(g) for g in enumerate_connected(7)]
    lines[5] = to_graph6(gen_cycle(6))
    (tmp_path / "connected7.g6").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="6 vertices"):
        list(enumerate_connected(7, corpus_dir=tmp_path))
    # records split at line feeds only: a first line ending in NEL and a space
    # is one bad record, not a good one and a blank
    lines[5] = to_graph6(gen_cycle(7))
    (tmp_path / "connected7.g6").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    assert sum(1 for _ in enumerate_connected(7, corpus_dir=tmp_path)) == 853
    lines[0] += "\x85 "
    (tmp_path / "connected7.g6").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-ASCII"):
        list(enumerate_connected(7, corpus_dir=tmp_path))
    with pytest.raises(ValueError):
        list(enumerate_connected(9))
    with pytest.raises(ValueError, match="corpus directory"):  # no fixture below n = 7
        list(enumerate_connected(6, corpus_dir=tmp_path))


def _graph_facts(graphs):
    return [(g.n, g.adj, g.m, to_graph6(g)) for g in graphs]


def test_graphs_from_stack_rebuilds_the_stacked_graphs():
    # up to n = 64, where vertex 63's bit is the top bit of an unsigned 64-bit row
    rng = random.Random(64)
    for n in (1, 2, 9, 33, 63, 64):
        graphs = [random_graph(rng, n, rng.random()) for _ in range(5)]
        stack = np.zeros((len(graphs), n, n), dtype=bool)
        for i, g in enumerate(graphs):
            for u, v in g.edges():
                stack[i, u, v] = stack[i, v, u] = True
        built = graphs_from_stack(stack)
        assert _graph_facts(built) == _graph_facts(graphs), n
        assert all(type(v) is int for g in built for v in g.adj)


def _read_line_by_line(n, corpus_dir=None):
    """The fixture read one line at a time: parse_graph6 and the order check."""
    out = []
    for s in _fixture_lines(n, corpus_dir):
        g = parse_graph6(s)
        if g.n != n:
            raise ValueError(f"fixture connected{n}.g6 holds {s!r}, a graph on {g.n} vertices")
        out.append(g)
    return out


def test_fixture_decoder_matches_parse_graph6(tmp_path):
    # every internal order n <= 6, whose widths include the degenerate n = 1
    # ("@", no data byte) and n = 2 ("A_"), both packaged fixtures, and
    # connected8.g6 with every graph relabeled, so that the lines are not the
    # canonical forms
    for n in range(1, 7):
        assert (_graph_facts(enumerate_connected(n))
                == _graph_facts(map(parse_graph6, _connected_classes_g6(n)))), n
    rng = random.Random(21)
    lines = [to_graph6(relabel(g, random_permutation(rng, 8))) for g in enumerate_connected(8)]
    (tmp_path / "connected8.g6").write_text("\n".join(lines) + "\n")
    for n, corpus_dir in ((7, None), (8, None), (8, tmp_path)):
        assert (_graph_facts(enumerate_connected(n, corpus_dir))
                == _graph_facts(_read_line_by_line(n, corpus_dir)))


_C7 = to_graph6(gen_cycle(7))
# lines refused (True) or read (False) when they replace one line of
# connected7.g6, whose records are 5 characters long
FIXTURE_LINES = {
    **{bad: True for bad in MALFORMED_GRAPH6},
    to_graph6(gen_cycle(6)): True,  # another order
    to_graph6(gen_cycle(8)): True,
    "~??F" + _C7[1:]: False,  # the long size form of a 7-vertex graph
    # 5 characters, but not a 7-vertex record
    "E?~??": True,
    "F???@": True,  # nonzero padding bits
    "F?!??": True,
    "F???\x00": True,
    "F?\u00e9??": True,
}


@pytest.mark.parametrize("line", list(FIXTURE_LINES))
def test_faulty_fixture_line_is_refused_or_read_as_alone(tmp_path, line):
    lines = _fixture_lines(7, None)
    lines[5] = line
    (tmp_path / "connected7.g6").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        expected = _graph_facts(_read_line_by_line(7, tmp_path))
    except ValueError as exc:
        assert FIXTURE_LINES[line]
        with pytest.raises(ValueError) as refused:
            list(enumerate_connected(7, tmp_path))
        assert str(refused.value) == str(exc)
    else:
        assert not FIXTURE_LINES[line]
        assert _graph_facts(enumerate_connected(7, tmp_path)) == expected


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

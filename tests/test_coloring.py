import gc
import hashlib
import math
import random

import pytest

from distlap import coloring
from distlap.coloring import max_ell1_colors, optimal_colors
from distlap.graphs import (
    Graph,
    enumerate_connected,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_g_clq,
    gen_comp_s62,
    gen_path,
    parse_graph6,
    relabel,
    to_graph6,
)
from distlap.metric import distance_stack
from distlap.verify import BATCH, analyze, analyze_many
from helpers import (
    assert_columns_match_analyze,
    brute_force_chromatic,
    classes_of,
    dense_graphs,
    is_proper,
    neighbor_lists,
    random_connected_graph,
    random_graph,
    random_permutation,
    reference_search,
)


def _chi(g: Graph) -> int:
    """The number of colors of optimal_colors(g)."""
    return len(set(optimal_colors(g)))


def test_chromatic_number_examples():
    assert _chi(gen_path(8)) == 2
    assert _chi(gen_cycle(5)) == 3
    assert _chi(gen_g_clq()) == 5
    assert _chi(gen_comp_s62()) == 6
    assert _chi(gen_complete(7)) == 7


def test_chromatic_number_matches_brute_force_n6():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert _chi(g) == brute_force_chromatic(g)


def test_chromatic_number_matches_brute_force_n7():
    for g in enumerate_connected(7):
        assert _chi(g) == brute_force_chromatic(g)


def test_chromatic_number_on_disconnected():
    # works without a connectivity precondition
    from distlap.graphs import complement
    g = complement(gen_complete(4))
    assert _chi(g) == 1


def test_optimal_coloring_structure():
    classes = classes_of(optimal_colors(gen_complete_multipartite([4, 4, 2])))
    assert len(classes) == 3 and tuple(map(len, classes)) == (4, 4, 2)

    classes = classes_of(optimal_colors(gen_complete(5)))
    assert len(classes) == 5 and tuple(map(len, classes)) == (1,) * 5

    assert _chi(gen_comp_s62()) == 6


def test_optimal_coloring_is_proper_and_exact(corpus_analyses):
    for n in range(1, 7):
        for a in corpus_analyses[n]:
            classes = classes_of(a.colors)
            assert is_proper(a.graph, classes)
            assert len(classes) == a.chi == len(a.sizes)
            assert tuple(map(len, classes)) == a.sizes
            assert a.sizes == tuple(sorted(a.sizes, reverse=True))
            assert a.sizes[0] >= math.ceil(n / a.chi)  # pigeonhole


# SHA-256 of repr((chi, classes)) over dense_graphs(1, 40), from the list-based
# search the bitset kernel replaced
DENSE_COLORINGS_SHA256 = "27f8b90cbe61881716c9dcd1193b0b93f0472c35271dc59753cd1fb8b32ec6c2"


def test_dense_colorings_are_pinned():
    # n 30-44: the search backtracks deeply and _k_colorable calls _extend,
    # which n <= 7 (test_integer_facts_are_pinned) rarely reaches. The pin
    # holds for optimal_colors and for analyze, one graph at a time, and
    # the class sizes of analyze's and of analyze_many's stacks, one per
    # order, whose colorings start from greedy_starts, are those of the
    # pinned colorings.
    graphs = dense_graphs(1, 40)
    orders = {g.n for g in graphs}
    assert len(orders) < len(graphs)  # so some stack holds more than one graph
    analyzed = [analyze(g) for g in graphs]
    for colorings in ([optimal_colors(g) for g in graphs], [a.colors for a in analyzed]):
        digest = hashlib.sha256()
        for classes in map(classes_of, colorings):
            digest.update(repr((len(classes), classes)).encode())
        assert digest.hexdigest() == DENSE_COLORINGS_SHA256
    sizes = [tuple(map(len, classes_of(a.colors))) for a in analyzed]
    assert [a.sizes for a in analyzed] == sizes
    for n in orders:
        at = [i for i, g in enumerate(graphs) if g.n == n]
        assert analyze_many([graphs[i] for i in at]).sizes.tolist() == [
            [*sizes[i], *[0] * (n - len(sizes[i]))] for i in at]


def test_a_spent_clique_budget_leaves_the_colors_as_they_are(monkeypatch):
    # with no node to spend, every search of _chromatic for k colors ends in
    # the clique test: a clique of k + 1 stops the descent, and without one
    # the search runs again unbounded; both must give the colors of a
    # search that is never stopped
    graphs = dense_graphs(1, 40)
    monkeypatch.setattr(coloring, "CLIQUE_NODES", math.inf)
    expected = [optimal_colors(g) for g in graphs]
    found = []
    real = coloring._maximal_cliques
    monkeypatch.setattr(coloring, "_maximal_cliques",
                        lambda *args, **kw: found.append(bool(sets := real(*args, **kw))) or sets)
    monkeypatch.setattr(coloring, "CLIQUE_NODES", 0)
    assert [optimal_colors(g) for g in graphs] == expected
    assert True in found and False in found


# SHA-256 of repr((graph6, chi, classes)) of max_ell1_colors over 400 seeded
# connected graphs with n 9..16 and densities spread over 0.15..0.8, which have
# many more maximal independent sets per graph than the n = 8 corpus
MAX_L1_COLORINGS_SHA256 = "d8984a2d8a43cbe232dfc4d8935b467f61fd1bff05aa839292e3dd386897d2eb"


def test_max_l1_colorings_above_n8_are_pinned():
    rng = random.Random(916)
    digest = hashlib.sha256()
    for i in range(400):
        n = 9 + i % 8
        density = 0.15 + 0.65 * i / 399
        edges = [(rng.randrange(v), v) for v in range(1, n)]  # a random spanning tree
        edges += [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
        g = Graph.from_edges(n, edges)
        classes = classes_of(max_ell1_colors(g))
        digest.update(repr((to_graph6(g), len(classes), classes)).encode())
    assert digest.hexdigest() == MAX_L1_COLORINGS_SHA256


def test_greedy_starts_match_the_per_graph_start():
    # every connected n <= 8 graph in the sweep's slices, and seeded stacks up to n = 64
    stacks = []
    for n in range(1, 9):
        graphs = list(enumerate_connected(n))
        stacks += [graphs[i:i + BATCH] for i in range(0, len(graphs), BATCH)]
    rng = random.Random(19)
    stacks += [[random_connected_graph(rng, n, n, 0.1, 0.9) for _ in range(12)]
               for n in (9, 16, 33, 62, 63, 64)]
    for stack in stacks:
        expected = [(coloring._search(g.adj, g.n), len(coloring._greedy_clique(g.adj)))
                    for g in stack]
        colors, cliques = coloring.greedy_starts(distance_stack(stack) == 1)
        assert list(zip(colors.tolist(), cliques.tolist())) == expected


def _assert_stacked_colorings(graphs, mode) -> bool:
    """Check that analyze_many's colorings of the same-order `graphs` are
    those of each graph colored alone: the stack's class sizes (its sorted
    bincount of colors, 0 past chi) equal those of the graph's own
    coloring, and every column equals analyze's (assert_columns_match_analyze).
    Returns whether some graph has two classes of one size."""
    color = {"default": optimal_colors, "max-l1": max_ell1_colors}[mode]
    stack = analyze_many(graphs, mode)
    assert_columns_match_analyze(stack, mode)
    tied = False
    for i, g in enumerate(graphs):
        want = tuple(map(len, classes_of(color(g))))
        assert stack.sizes[i].tolist() == [*want, *[0] * (g.n - len(want))], to_graph6(g)
        tied |= len(set(want)) < len(want)
    return tied


@pytest.mark.parametrize("mode", ["default", "max-l1"])
def test_stacked_colorings_match_each_graph_colored_alone(mode):
    # every connected n <= 7 graph in the sweep's slices, and sweep-sized
    # slices of the n = 8 corpus under a seeded relabeling
    found = set()
    for n in range(1, 8):
        graphs = list(enumerate_connected(n))
        for i in range(0, len(graphs), BATCH):
            found.add(_assert_stacked_colorings(graphs[i:i + BATCH], mode))
    rng = random.Random(3131)
    graphs = list(enumerate_connected(8))
    for start in (0, 5120):
        stack = [relabel(g, random_permutation(rng, 8)) for g in graphs[start:start + BATCH]]
        assert len(stack) == BATCH
        found.add(_assert_stacked_colorings(stack, mode))
    assert True in found


def test_stacked_colorings_match_above_n8():
    # seeded stacks with n 9..64, each graph under two seeded relabelings:
    # complete multipartite graphs with three equal parts, cycles and paths
    # (classes that tie in size), and random graphs, denser up to n = 16;
    # max-l1 mode up to its guard of n = 16
    rng = random.Random(6464)
    for n in (9, 12, 16, 23, 37, 64):
        q, r = divmod(n, 3)
        graphs = [gen_complete_multipartite([q, q, q] + [r] * (r > 0)), gen_cycle(n), gen_path(n)]
        p = (0.25, 0.45) if n <= 16 else (0.05, 0.1)
        graphs += [random_connected_graph(rng, n, n, *p) for _ in range(6)]
        graphs = [relabel(g, random_permutation(rng, n)) for g in graphs for _ in range(2)]
        for mode in ("default", "max-l1") if n <= 16 else ("default",):
            assert _assert_stacked_colorings(graphs, mode), (n, mode)


def test_colorings_leave_no_reference_cycles():
    # the recursive searches are closures that call themselves; a coloring
    # must leave none of them, nor anything else, to the cycle collector
    g = random_connected_graph(random.Random(1562), 14, 14, 0.5, 0.5)
    gc.collect()
    gc.disable()
    try:
        for color in (optimal_colors, max_ell1_colors):
            color(g)
            assert gc.collect() == 0, color.__name__
    finally:
        gc.enable()


def test_optimal_coloring_deterministic():
    g = gen_cycle(9)
    first = optimal_colors(g)
    for _ in range(3):
        assert optimal_colors(g) == first


def test_is_proper():
    k3 = gen_complete(3)
    assert is_proper(k3, [(0,), (1,), (2,)])
    assert not is_proper(k3, [(0, 1), (2,)])
    assert is_proper(gen_cycle(4), [(0, 2), (1, 3)])
    with pytest.raises(ValueError):
        is_proper(k3, [(0, 1)])
    with pytest.raises(ValueError):
        is_proper(k3, [(0, 1), (1, 2)])


def test_max_ell1_examples():
    assert len(classes_of(max_ell1_colors(gen_complete_multipartite([3, 5])))[0]) == 5
    classes = classes_of(max_ell1_colors(gen_cycle(6)))
    assert len(classes) == 2 and tuple(map(len, classes)) == (3, 3)
    classes = classes_of(max_ell1_colors(gen_path(7)))
    assert len(classes) == 2 and len(classes[0]) == 4


def test_max_ell1_guard():
    with pytest.raises(ValueError):
        max_ell1_colors(gen_path(17))


def test_max_ell1_dominates_default(corpus_analyses):
    rng = random.Random(9)
    for n in range(2, 8):
        sample = corpus_analyses[n]
        if n <= 6:
            picked = sample
        else:
            picked = rng.sample(sample, 60)
        for a in picked:
            best = classes_of(max_ell1_colors(a.graph))
            assert len(best) == a.chi
            assert len(best[0]) >= a.sizes[0] >= math.ceil(n / len(best))
            assert is_proper(a.graph, best)


def test_max_ell1_exhaustive_against_all_colorings():
    # cross-check the claimed maximum against a direct search over all proper
    # chi-colorings on a few small graphs
    import itertools

    rng = random.Random(4)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.8))
        chi = brute_force_chromatic(g)
        best = 0
        for assignment in itertools.product(range(chi), repeat=g.n):
            if len(set(assignment)) != chi:
                continue
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                largest = max(assignment.count(c) for c in range(chi))
                best = max(best, largest)
        assert len(classes_of(max_ell1_colors(g))[0]) == best


def test_maximal_independent_sets_above_a_floor_match_brute_force():
    # the floor cuts branches, never sets: for every connected graph with
    # n <= 7 and every floor, the listed sets are exactly the maximal
    # independent sets with at least floor vertices
    for n in range(1, 8):
        for g in enumerate_connected(n):
            independent = [s for s in range(1 << n)
                           if not any(g.adj[v] & s for v in range(n) if s >> v & 1)]
            maximal = [s for s in independent
                       if all(g.adj[v] & s for v in range(n) if not s >> v & 1)]
            for floor in range(n + 1):
                found = coloring._maximal_independent_sets(g.adj, floor)
                assert len(found) == len(set(found))
                assert set(found) == {s for s in maximal if s.bit_count() >= floor}
                # the independent sets of g are the cliques of its complement
                comp = [(1 << n) - 1 & ~(a | 1 << v) for v, a in enumerate(g.adj)]
                assert coloring._maximal_cliques(comp, floor, limit=1) == found[:1]


def _first_by_plain_backtracking(g, k):
    """The search _k_colorable must agree with: plain backtracking, vertices in
    DSATUR order (ties by lowest index), colors lowest first, one fresh color
    per step, the first proper k-coloring found."""
    n = g.n
    colors = [-1] * n

    def seen(v):
        return {colors[u] for u in range(n) if g.adj[v] >> u & 1 and colors[u] >= 0}

    def rec(done, used):
        if done == n:
            return True
        v = max((u for u in range(n) if colors[u] < 0), key=lambda u: (len(seen(u)), -u))
        for c in range(min(used, k - 1) + 1):
            if c not in seen(v):
                colors[v] = c
                if rec(done + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
        return False

    return colors if k > 0 and rec(0, 0) else None


@pytest.mark.parametrize("plain_nodes", [0, 5, coloring.PLAIN_NODES])
def test_k_colorable_finds_plain_backtracking_first(monkeypatch, plain_nodes):
    # with a small budget the coloring is built by the _extend-guided descent
    monkeypatch.setattr(coloring, "PLAIN_NODES", plain_nodes)
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(4, 11), rng.uniform(0.2, 0.9)) for _ in range(60)]
    # graphs whose first coloring takes a fresh color where the witness has another
    graphs += [parse_graph6(s) for s in ("G~LZ][", "HMbMA\\U", "JHQOpWwwMB?")]
    for g in graphs:
        # with k = n nothing backtracks: the greedy DSATUR coloring optimal_colors starts from
        for k in [*range(1, 7), g.n]:
            assert coloring._k_colorable(g.adj, k) == _first_by_plain_backtracking(g, k)


class _NodeCount:
    """A budget that never runs out and counts the nodes that spend it."""

    def __init__(self):
        self.spent = 0

    def __sub__(self, other):
        self.spent += other
        return self

    def __lt__(self, other):
        return False


def _outcome(search, *args):
    try:
        return search(*args)
    except coloring._OverBudget:
        return "over budget"


def test_search_matches_the_list_reference():
    # same coloring or None, and the same node count: a budget runs out at the same point
    rng = random.Random(11)
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [random_connected_graph(rng, 8, 20) for _ in range(60)]
    for g in graphs:
        nbrs = neighbor_lists(g.adj)
        by_degree = coloring._by_degree(g.adj)
        for k in range(1, g.n + 1):
            count = _NodeCount()
            expected = reference_search(nbrs, k, False, count)
            budgets = (0, 1, 5, count.spent - 1, count.spent)
            got = [_outcome(coloring._search, g.adj, k, b) for b in budgets]
            assert got == [_outcome(reference_search, nbrs, k, False, b) for b in budgets]
            assert got[-2:] == ["over budget", expected]
            assert by_degree(k) == reference_search(nbrs, k, True)
    # the empty graph has its one coloring in no colors; a vertex has none
    assert coloring._search([], 0) == [] and coloring._search([0], 0) is None


def test_extend_keeps_the_partial_coloring():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 10), rng.uniform(0.3, 0.8))
        k = _chi(g)
        full = coloring._k_colorable(g.adj, k)
        partial = [c if rng.random() < 0.4 else -1 for c in full]
        found = coloring._extend(g.adj, k, partial)
        assert found is not None and max(found) < k
        assert all(p < 0 or p == c for p, c in zip(partial, found))
        assert all(found[u] != found[v] for u, v in g.edges())
    # C5 has no 2-coloring, and a 3-coloring with vertices 0 and 2 apart
    c5 = gen_cycle(5)
    assert coloring._extend(c5.adj, 2, [0, -1, -1, -1, -1]) is None
    assert coloring._extend(c5.adj, 3, [0, -1, 1, -1, -1]) is not None

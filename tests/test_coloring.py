import math
import random

import pytest

from distlap import coloring
from distlap.coloring import chromatic_number, is_proper, max_ell1_coloring, optimal_coloring
from distlap.graphs import (
    enumerate_connected,
    gen_complete,
    gen_complete_multipartite,
    gen_cycle,
    gen_g_clq,
    gen_comp_s62,
    gen_path,
    parse_graph6,
)
from helpers import brute_force_chromatic, random_graph


def test_chromatic_number_examples():
    assert chromatic_number(gen_path(8)) == 2
    assert chromatic_number(gen_cycle(5)) == 3
    assert chromatic_number(gen_g_clq()) == 5
    assert chromatic_number(gen_comp_s62()) == 6
    assert chromatic_number(gen_complete(7)) == 7


def test_chromatic_number_matches_brute_force_n6():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert chromatic_number(g) == brute_force_chromatic(g)


def test_chromatic_number_matches_brute_force_n7():
    for g in enumerate_connected(7):
        assert chromatic_number(g) == brute_force_chromatic(g)


def test_chromatic_number_on_disconnected():
    # works without a connectivity precondition
    from distlap.graphs import complement
    g = complement(gen_complete(4))
    assert chromatic_number(g) == 1


def test_optimal_coloring_structure():
    res = optimal_coloring(gen_complete_multipartite([4, 4, 2]))
    assert res.chi == 3 and res.sizes == (4, 4, 2)
    assert res.b_chi == 10 + math.ceil(10 / 3)

    res = optimal_coloring(gen_complete(5))
    assert res.chi == 5 and res.sizes == (1,) * 5

    res = optimal_coloring(gen_comp_s62())
    assert res.chi == 6


def test_optimal_coloring_is_proper_and_exact(corpus_analyses):
    for n in range(1, 7):
        for a in corpus_analyses[n]:
            res = a.coloring
            assert is_proper(a.graph, res.classes)
            assert len(res.classes) == res.chi
            assert res.sizes == tuple(sorted(res.sizes, reverse=True))
            assert res.sizes[0] >= math.ceil(n / res.chi)  # pigeonhole


def test_optimal_coloring_deterministic():
    g = gen_cycle(9)
    first = optimal_coloring(g)
    for _ in range(3):
        assert optimal_coloring(g) == first


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
    assert max_ell1_coloring(gen_complete_multipartite([3, 5])).sizes[0] == 5
    res = max_ell1_coloring(gen_cycle(6))
    assert res.chi == 2 and res.sizes == (3, 3)
    res = max_ell1_coloring(gen_path(7))
    assert res.chi == 2 and res.sizes[0] == 4


def test_max_ell1_guard():
    with pytest.raises(ValueError):
        max_ell1_coloring(gen_path(17))


def test_max_ell1_dominates_default(corpus_analyses):
    rng = random.Random(9)
    for n in range(2, 8):
        sample = corpus_analyses[n]
        if n <= 6:
            picked = sample
        else:
            picked = rng.sample(sample, 60)
        for a in picked:
            best = max_ell1_coloring(a.graph)
            assert best.chi == a.coloring.chi
            assert best.sizes[0] >= a.coloring.sizes[0] >= math.ceil(n / best.chi)
            assert is_proper(a.graph, best.classes)


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
        assert max_ell1_coloring(g).sizes[0] == best


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
        for k in range(1, 7):
            assert coloring._k_colorable(g, k) == _first_by_plain_backtracking(g, k)


def test_extend_keeps_the_partial_coloring():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 10), rng.uniform(0.3, 0.8))
        k = chromatic_number(g)
        full = coloring._k_colorable(g, k)
        partial = [c if rng.random() < 0.4 else -1 for c in full]
        found = coloring._extend(g, k, partial)
        assert found is not None and max(found) < k
        assert all(p < 0 or p == c for p, c in zip(partial, found))
        assert all(found[u] != found[v] for u, v in g.edges())
    # C5 has no 2-coloring, and a 3-coloring with vertices 0 and 2 apart
    c5 = gen_cycle(5)
    assert coloring._extend(c5, 2, [0, -1, -1, -1, -1]) is None
    assert coloring._extend(c5, 3, [0, -1, 1, -1, -1]) is not None

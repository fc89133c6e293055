import random
from collections import deque

import numpy as np
import pytest

from distlap.graphs import (
    Graph,
    enumerate_connected,
    gen_complete,
    gen_cycle,
    gen_path,
    is_connected,
)
from distlap.metric import distance_laplacian, distance_stack
from distlap.verify import analyze
from helpers import random_connected_graph, toggle_edge


def _bfs_distances(g: Graph) -> list[list[int]]:
    """Hop distances by one breadth-first search per source (reference)."""
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in range(g.n):
                if g.has_edge(v, u) and dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        rows.append(dist)
    return rows


def _dist(g: Graph) -> np.ndarray:
    """The distance matrix of one graph, from a stack of one."""
    return distance_stack([g])[0]


def _sparse_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random tree plus a few random chords, so diameters run long."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n // 4)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def test_apsp_path_end_transmission():
    assert _dist(gen_path(8))[0].sum() == 28  # 1+2+...+7
    a = analyze(gen_path(8))
    assert a.diameter == 7
    assert a.wiener == 84


def test_apsp_complete():
    for n in (2, 5, 9):
        assert all(t == n - 1 for t in _dist(gen_complete(n)).sum(axis=1))
        a = analyze(gen_complete(n))
        assert a.wiener == n * (n - 1) // 2
        assert a.diameter == 1


def test_apsp_cycle_transmission_regular():
    assert all(t == 25 for t in _dist(gen_cycle(10)).sum(axis=1))  # 2(1+2+3+4)+5


def test_apsp_rejects_disconnected():
    g = toggle_edge(gen_path(3), 0, 1)
    with pytest.raises(ValueError):
        _dist(g)
    with pytest.raises(ValueError, match="disconnected"):
        distance_stack([gen_path(3), g, gen_complete(3)])


def test_apsp_matches_bfs_on_corpus():
    for n in range(1, 8):
        graphs = list(enumerate_connected(n))
        stack = distance_stack(graphs)
        for g, dist in zip(graphs, stack, strict=True):
            reference = _bfs_distances(g)
            assert _dist(g).tolist() == reference
            assert dist.tolist() == reference


def test_apsp_matches_bfs_up_to_64_vertices():
    rng = random.Random(11)
    graphs = [gen_path(64), gen_cycle(64), gen_complete(64)]
    graphs += [_sparse_connected_graph(rng, rng.randint(2, 64)) for _ in range(30)]
    graphs += [random_connected_graph(rng, 2, 64) for _ in range(10)]
    for g in graphs:
        dist = _dist(g)
        assert dist.dtype == np.int64
        assert dist.tolist() == _bfs_distances(g)
    same_order = [_sparse_connected_graph(rng, 40) for _ in range(8)]
    for g, dist in zip(same_order, distance_stack(same_order), strict=True):
        assert dist.tolist() == _bfs_distances(g)


def test_distance_laplacian_p3():
    dl = distance_laplacian(_dist(gen_path(3)))
    assert dl.tolist() == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]


def test_distance_laplacian_k2_k3():
    assert distance_laplacian(_dist(gen_complete(2))).tolist() == [[1, -1], [-1, 1]]
    dl3 = distance_laplacian(_dist(gen_complete(3)))
    assert dl3.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_diameter_examples():
    assert analyze(gen_path(8)).diameter == 7
    from distlap.graphs import gen_comp_s62, gen_g_clq
    assert analyze(gen_comp_s62()).diameter == 3
    assert analyze(gen_g_clq()).diameter == 4


def test_dl_invariants_on_corpus(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        stack = distance_stack([a.graph for a in analyses])
        for a, d in zip(analyses, stack, strict=True):
            dl = distance_laplacian(d)
            assert (dl.sum(axis=1) == 0).all()  # exact integer row sums
            assert np.array_equal(dl, dl.T)
            assert dl.trace() == 2 * a.wiener
            assert a.diameter == d.max()
            assert (d == d.T).all() and (np.diag(d) == 0).all()
            if n > 1:
                off = d + np.eye(n, dtype=int)
                assert off.min() >= 1


def test_triangle_inequality_on_corpus(corpus_analyses):
    for analyses in corpus_analyses.values():
        for d in distance_stack([a.graph for a in analyses[:40]]):
            # d[u,v] <= d[u,w] + d[w,v] for all triples
            assert (d[:, None, :] <= d[:, :, None] + d[None, :, :] + 0).all()


def test_distance_monotone_under_spanning_subgraph():
    rng = random.Random(3)
    for _ in range(30):
        h = random_connected_graph(rng, 4, 9)
        edges = h.edges()
        rng.shuffle(edges)
        for u, v in edges:
            g = toggle_edge(h, u, v)
            if not is_connected(g):
                continue
            assert (_dist(g) >= _dist(h)).all()
            break

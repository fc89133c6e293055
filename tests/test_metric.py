import random
from collections import deque

import numpy as np
import pytest

from distlap.graphs import (
    Graph,
    delete_edge,
    enumerate_connected,
    gen_complete,
    gen_cycle,
    gen_path,
    is_connected,
)
from distlap.metric import apsp, diameter, distance_laplacian, distance_stack
from helpers import random_connected_graph


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


def _sparse_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random tree plus a few random chords, so diameters run long."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n // 4)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def test_apsp_path_end_transmission():
    dd = apsp(gen_path(8))
    assert dd.tr[0] == 28  # 1+2+...+7
    assert dd.diameter == 7
    assert dd.wiener == 84


def test_apsp_complete():
    for n in (2, 5, 9):
        dd = apsp(gen_complete(n))
        assert all(t == n - 1 for t in dd.tr)
        assert dd.wiener == n * (n - 1) // 2
        assert dd.diameter == 1


def test_apsp_cycle_transmission_regular():
    dd = apsp(gen_cycle(10))
    assert all(t == 25 for t in dd.tr)  # 2(1+2+3+4)+5


def test_apsp_rejects_disconnected():
    g = delete_edge(gen_path(3), 0, 1)
    with pytest.raises(ValueError):
        apsp(g)
    with pytest.raises(ValueError, match="disconnected"):
        distance_stack([gen_path(3), g, gen_complete(3)])


def test_apsp_matches_bfs_on_corpus():
    for n in range(1, 8):
        graphs = list(enumerate_connected(n))
        stack = distance_stack(graphs)
        for g, dist in zip(graphs, stack, strict=True):
            reference = _bfs_distances(g)
            assert apsp(g).dist.tolist() == reference
            assert dist.tolist() == reference


def test_apsp_matches_bfs_up_to_64_vertices():
    rng = random.Random(11)
    graphs = [gen_path(64), gen_cycle(64), gen_complete(64)]
    graphs += [_sparse_connected_graph(rng, rng.randint(2, 64)) for _ in range(30)]
    graphs += [random_connected_graph(rng, 2, 64) for _ in range(10)]
    for g in graphs:
        dd = apsp(g)
        assert dd.dist.dtype == np.int64
        assert dd.dist.tolist() == _bfs_distances(g)
    same_order = [_sparse_connected_graph(rng, 40) for _ in range(8)]
    for g, dist in zip(same_order, distance_stack(same_order), strict=True):
        assert dist.tolist() == _bfs_distances(g)


def test_distance_laplacian_p3():
    dl = distance_laplacian(apsp(gen_path(3)).dist)
    assert dl.tolist() == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]


def test_distance_laplacian_k2_k3():
    assert distance_laplacian(apsp(gen_complete(2)).dist).tolist() == [[1, -1], [-1, 1]]
    dl3 = distance_laplacian(apsp(gen_complete(3)).dist)
    assert dl3.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_diameter_examples():
    assert diameter(gen_path(8)) == 7
    from distlap.graphs import gen_comp_s62, gen_g_clq
    assert diameter(gen_comp_s62()) == 3
    assert diameter(gen_g_clq()) == 4


def test_dl_invariants_on_corpus(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        for a in analyses:
            dl = distance_laplacian(a.dd.dist)
            assert (dl.sum(axis=1) == 0).all()  # exact integer row sums
            assert np.array_equal(dl, dl.T)
            assert dl.trace() == 2 * a.dd.wiener
            d = a.dd.dist
            assert (d == d.T).all() and (np.diag(d) == 0).all()
            if n > 1:
                off = d + np.eye(n, dtype=int)
                assert off.min() >= 1


def test_triangle_inequality_on_corpus(corpus_analyses):
    for analyses in corpus_analyses.values():
        for a in analyses[:40]:
            d = a.dd.dist
            n = a.n
            # d[u,v] <= d[u,w] + d[w,v] for all triples
            assert (d[:, None, :] <= d[:, :, None] + d[None, :, :] + 0).all()


def test_distance_monotone_under_spanning_subgraph():
    rng = random.Random(3)
    for _ in range(30):
        h = random_connected_graph(rng, 4, 9)
        edges = h.edges()
        rng.shuffle(edges)
        for u, v in edges:
            g = delete_edge(h, u, v)
            if not is_connected(g):
                continue
            assert (apsp(g).dist >= apsp(h).dist).all()
            break

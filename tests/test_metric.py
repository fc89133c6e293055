import random

import numpy as np
import pytest

from distlap.graphs import delete_edge, gen_complete, gen_cycle, gen_path, is_connected
from distlap.metric import apsp, diameter, distance_laplacian
from helpers import random_connected_graph


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


def test_distance_laplacian_p3():
    dl = distance_laplacian(apsp(gen_path(3)))
    assert dl.tolist() == [[3, -1, -2], [-1, 2, -1], [-2, -1, 3]]


def test_distance_laplacian_k2_k3():
    assert distance_laplacian(apsp(gen_complete(2))).tolist() == [[1, -1], [-1, 1]]
    dl3 = distance_laplacian(apsp(gen_complete(3)))
    assert dl3.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_diameter_examples():
    assert diameter(gen_path(8)) == 7
    from distlap.graphs import gen_comp_s62, gen_g_clq
    assert diameter(gen_comp_s62()) == 3
    assert diameter(gen_g_clq()) == 4


def test_dl_invariants_on_corpus(corpus_analyses):
    for n, analyses in corpus_analyses.items():
        for a in analyses:
            dl = distance_laplacian(a.dd)
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

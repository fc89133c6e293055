import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlap.eigen import (
    cluster_values,
    count_in_interval,
    eig_symmetric,
    mu_at,
    mu_below,
    multipartite_spectrum_closed_form,
    spectrum,
)
from distlap.graphs import (
    delete_edge,
    gen_comp_s62,
    gen_complete,
    gen_complete_multipartite,
    gen_path,
    is_connected,
)
from distlap.metric import apsp, distance_laplacian
from helpers import random_connected_graph, random_part_sizes


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    assert eig_symmetric(np.diag([3.0, 1.0, 2.0])).tolist() == [3.0, 2.0, 1.0]


def test_eig_dl_k2():
    vals = eig_symmetric(np.array([[1, -1], [-1, 1]]))
    assert np.allclose(vals, [2.0, 0.0], atol=1e-12)


def test_eig_dl_p3():
    dl = distance_laplacian(apsp(gen_path(3)))
    # eigenvectors (1,0,-1) and (1,-2,1) give 5 and 3
    assert dl @ np.array([1, 0, -1]) @ np.array([1, 0, -1]) == 5 * 2
    assert (dl @ np.array([1, -2, 1]) == 3 * np.array([1, -2, 1])).all()
    vals = eig_symmetric(dl)
    assert np.allclose(vals, [5.0, 3.0, 0.0], atol=1e-9)


def test_eig_rejects_non_symmetric():
    with pytest.raises(ValueError):
        eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_symmetric(np.ones((2, 3)))


def test_eig_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 12, 30):
        m = rng.integers(-9, 10, size=(n, n))
        m = m + m.T
        mine = eig_symmetric(m)
        ref = np.linalg.eigvalsh(m.astype(float))[::-1]
        assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, np.abs(m).max())


def test_eig_single_entry_and_zero():
    assert eig_symmetric(np.array([[4.0]])).tolist() == [4.0]
    assert eig_symmetric(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectrum_table_examples():
    sp = spectrum(gen_complete_multipartite([2, 2, 1, 1, 1]))
    assert np.allclose(sp, [9, 9, 7, 7, 7, 7, 0], atol=1e-9)

    sp = spectrum(gen_comp_s62())
    head = [f"{v:.3f}" for v in sp[:6]]
    assert head == ["16.429", "10.922", "9.000", "9.000", "9.000", "9.000"]

    sp = spectrum(gen_path(8))
    head = [f"{v:.3f}" for v in sp[:3]]
    assert head == ["38.446", "28.000", "25.016"]


def test_closed_form_examples():
    sp = multipartite_spectrum_closed_form([2, 2])
    assert sp.tolist() == [6, 6, 4, 0]

    sp = multipartite_spectrum_closed_form([4, 4, 2])
    assert sp.tolist() == [14, 14, 14, 14, 14, 14, 12, 10, 10, 0]
    assert cluster_values(sp) == ((14.0, 6), (12.0, 1), (10.0, 2), (0.0, 1))

    n = 6
    sp = multipartite_spectrum_closed_form([1] * n)
    assert sp.tolist() == [n] * (n - 1) + [0]

    with pytest.raises(ValueError):
        multipartite_spectrum_closed_form([5])


def test_closed_form_matches_numeric_sample():
    rng = random.Random(11)
    for _ in range(25):
        parts = random_part_sizes(rng)
        exact = multipartite_spectrum_closed_form(parts)
        numeric = spectrum(gen_complete_multipartite(parts))
        n = sum(parts)
        assert np.max(np.abs(exact - numeric)) <= 1e-8 * n


# ---------------------------------------------------------------------------
# interval counting
# ---------------------------------------------------------------------------

def test_count_in_interval_examples():
    sp = spectrum(gen_complete_multipartite([4, 4, 2]))
    assert count_in_interval(sp, 14, sp[0]) == 6

    sp8 = spectrum(gen_path(8))
    assert count_in_interval(sp8, 12, sp8[0]) == 7
    assert mu_below(sp8, 12) + count_in_interval(sp8, 12, sp8[0]) == 8


def test_count_in_interval_empty_interval():
    sp = spectrum(gen_complete(5))
    # b_chi = 6 lies above the spectral radius 5: the interval holds nothing
    assert count_in_interval(sp, 6, sp[0]) == 0
    assert mu_below(sp, 6) == 5


def test_mu_at():
    sp = spectrum(gen_complete_multipartite([3, 5]))
    assert mu_at(sp, 8) == 1
    assert mu_at(sp, 13) == 4
    assert mu_at(sp, 12) == 0


def test_cluster_values():
    clusters = cluster_values([5.0, 5.0 + 1e-9, 3.0, 0.0], int_tol=1e-6)
    assert [(round(v, 6), m) for v, m in clusters] == [(5.0, 2), (3.0, 1), (0.0, 1)]
    assert cluster_values([]) == ()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
def test_count_identity_on_multipartite(parts):
    sp = multipartite_spectrum_closed_form(parts)
    n = sum(parts)
    b = n + -(-n // len(parts))
    assert mu_below(sp, b) + count_in_interval(sp, b, sp[0]) == n


# ---------------------------------------------------------------------------
# spectral invariants on the corpus
# ---------------------------------------------------------------------------

def test_spectral_sanity_small_corpus(corpus_analyses):
    for n in range(1, 7):
        for a in corpus_analyses[n]:
            vals = a.values
            assert vals.min() >= -1e-6                       # PSD
            assert mu_at(vals, 0.0, 1e-6) == 1                # simple zero
            assert abs(vals.sum() - 2 * a.dd.wiener) <= n * 1e-6
            assert sum(m for _, m in cluster_values(vals, a.int_tol)) == n
            assert (np.diff(vals) <= 1e-12).all()             # nonincreasing


def test_edge_deletion_monotonicity_sample():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, 4, 9)
        base = spectrum(g)
        for u, v in g.edges():
            h = delete_edge(g, u, v)
            if not is_connected(h):
                continue
            assert (spectrum(h) >= base - 1e-8).all()

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlap.eigen import (
    INT_TOL,
    cluster_values,
    count_at_least,
    eig_symmetric,
    multiplicity,
)
from distlap.graphs import (
    gen_comp_s62,
    gen_complete,
    gen_complete_multipartite,
    gen_path,
    is_connected,
)
from distlap.metric import distance_laplacian, distance_stack
from distlap.verify import analyze
from helpers import (
    dl_spectra,
    multipartite_spectrum_closed_form,
    random_connected_graph,
    random_part_sizes,
    toggle_edge,
)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    assert eig_symmetric(np.diag([3.0, 1.0, 2.0])).tolist() == [3.0, 2.0, 1.0]


def test_eig_dl_k2():
    vals = eig_symmetric(np.array([[1, -1], [-1, 1]]))
    assert np.allclose(vals, [2.0, 0.0], atol=1e-12)


def test_eig_dl_p3():
    dl = distance_laplacian(distance_stack([gen_path(3)])[0])
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
    sp = analyze(gen_complete_multipartite([2, 2, 1, 1, 1])).values
    assert np.allclose(sp, [9, 9, 7, 7, 7, 7, 0], atol=1e-9)

    sp = analyze(gen_comp_s62()).values
    head = [f"{v:.3f}" for v in sp[:6]]
    assert head == ["16.429", "10.922", "9.000", "9.000", "9.000", "9.000"]

    sp = analyze(gen_path(8)).values
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
    part_vectors = [random_part_sizes(rng) for _ in range(25)]
    numerics = dl_spectra([gen_complete_multipartite(parts) for parts in part_vectors])
    for parts, numeric in zip(part_vectors, numerics):
        exact = multipartite_spectrum_closed_form(parts)
        n = sum(parts)
        assert np.max(np.abs(exact - numeric)) <= 1e-8 * n


# ---------------------------------------------------------------------------
# threshold counts, one spectrum (nondecreasing) and one threshold per call
# ---------------------------------------------------------------------------

def test_count_at_least_examples():
    sp = analyze(gen_complete_multipartite([4, 4, 2])).values[::-1]  # 14 (x6), 12, 10, 10, 0
    assert [count_at_least(sp, c) for c in (14, 12, 11, 0)] == [6, 7, 7, 10]

    sp8 = analyze(gen_path(8)).values[::-1]
    assert [count_at_least(sp8, c) for c in (12, 38)] == [7, 1]


def test_count_at_least_above_the_spectral_radius():
    sp = analyze(gen_complete(5)).values[::-1]
    # b_chi = 6 lies above the spectral radius 5: nothing reaches it
    assert [count_at_least(sp, c) for c in (6, 5)] == [0, 4]


def test_multiplicity_examples():
    sp = analyze(gen_complete_multipartite([3, 5])).values[::-1]  # 13 (x4), 11, 11, 8, 0
    assert [multiplicity(sp, c) for c in (8, 13, 12, 0)] == [1, 4, 0, 1]


def test_counts_snap_within_int_tol():
    rising = [0.0, 10 - 2 * INT_TOL, 10 - INT_TOL / 2, 10 + INT_TOL / 2]
    assert [count_at_least(rising, c) for c in (10, 11, 0)] == [2, 0, 4]
    assert [multiplicity(rising, c) for c in (10, 11, 0)] == [2, 0, 1]


@pytest.mark.parametrize("c", [0, 12])
def test_counts_at_the_tolerance_boundary(c):
    # eigenvalues exactly at c - INT_TOL and c + INT_TOL and one float step to
    # either side of each, in every combination: each bisected count makes the
    # comparisons the whole-spectrum formulas below make
    lo, hi = c - INT_TOL, c + INT_TOL
    edges = [e for x in (lo, hi)
             for e in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    far = [c - 1.0, c + 1.0]
    for r in range(len(edges) + 1):
        for chosen in itertools.combinations(edges, r):
            rising = sorted([*far, c, *chosen])
            values = np.array(rising)
            assert count_at_least(rising, c) == int((values >= float(c) - INT_TOL).sum())
            assert multiplicity(rising, c) == int((np.abs(values - c) <= INT_TOL).sum())
    # the step below c - INT_TOL is not counted from above, and c - INT_TOL is
    assert count_at_least([math.nextafter(lo, -math.inf)], c) == 0
    assert count_at_least([lo], c) == 1


def test_cluster_values():
    clusters = cluster_values([5.0, 5.0 + 1e-9, 3.0, 0.0])
    assert [(round(v, 6), m) for v, m in clusters] == [(5.0, 2), (3.0, 1), (0.0, 1)]
    assert cluster_values([]) == ()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
def test_count_at_b_chi_on_multipartite(parts):
    # n + l_j reaches b_chi = n + ceil(n/k) exactly for the parts l_j >= ceil(n/k)
    sp = multipartite_spectrum_closed_form(parts)
    n = sum(parts)
    ceil_n_k = -(-n // len(parts))
    assert count_at_least(sp.tolist()[::-1], n + ceil_n_k) == sum(
        p - 1 for p in parts if p >= ceil_n_k)


# ---------------------------------------------------------------------------
# spectral invariants on the corpus
# ---------------------------------------------------------------------------

def test_spectral_sanity_small_corpus(corpus_analyses):
    for n in range(1, 7):
        for a in corpus_analyses[n]:
            assert multiplicity(a.values[::-1], 0) == 1  # simple zero
            vals = np.array(a.values)
            assert vals.min() >= -1e-6                       # PSD
            assert abs(vals.sum() - 2 * a.wiener) <= n * 1e-6
            assert sum(m for _, m in cluster_values(vals)) == n
            assert (np.diff(vals) <= 1e-12).all()             # nonincreasing


def test_edge_deletion_monotonicity_sample():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, 4, 9)
        deleted = [h for e in g.edges() if is_connected(h := toggle_edge(g, *e))]
        base, *spectra = dl_spectra([g, *deleted])
        for vals in spectra:
            assert (vals >= base - 1e-8).all()

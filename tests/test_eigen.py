import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlap.coloring import _maximal_independent_sets
from distlap.eigen import INT_TOL, cluster_values, counts_at_least, eig_symmetric, multiplicities
from distlap.graphs import (
    gen_comp_s62,
    gen_complete,
    gen_complete_multipartite,
    gen_path,
    is_connected,
)
from distlap.metric import distance_laplacian, distance_stack
from distlap.verify import analyze, run_checks
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
# threshold counts, of one spectrum or of a stack, at one or more thresholds
# ---------------------------------------------------------------------------

def test_count_at_least_examples():
    sp = np.array(analyze(gen_complete_multipartite([4, 4, 2])).values)  # 14 (x6), 12, 10, 10, 0
    assert counts_at_least(sp, [14, 12, 11, 0]).tolist() == [6, 7, 7, 10]

    sp8 = np.array(analyze(gen_path(8)).values)
    assert counts_at_least(sp8, [12, 38]).tolist() == [7, 1]


def test_count_at_least_above_the_spectral_radius():
    sp = np.array(analyze(gen_complete(5)).values)
    # b_chi = 6 lies above the spectral radius 5: nothing reaches it
    assert counts_at_least(sp, [6, 5]).tolist() == [0, 4]


def test_multiplicity_examples():
    sp = np.array(analyze(gen_complete_multipartite([3, 5])).values)  # 13 (x4), 11, 11, 8, 0
    assert multiplicities(sp, [8, 13, 12, 0]).tolist() == [1, 4, 0, 1]


def test_counts_snap_within_int_tol():
    values = np.array([10 + INT_TOL / 2, 10 - INT_TOL / 2, 10 - 2 * INT_TOL, 0.0])
    assert counts_at_least(values, [10, 11, 0]).tolist() == [2, 0, 4]
    assert multiplicities(values, [10, 11, 0]).tolist() == [2, 0, 1]


def _boundary_spectra(c):
    # eigenvalues exactly at c - INT_TOL and c + INT_TOL and one float step to
    # either side of each, in every combination, beside c and two far values;
    # each spectrum is nonincreasing, and the number of edge values it left out
    edges = [e for x in (c - INT_TOL, c + INT_TOL)
             for e in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    for r in range(len(edges) + 1):
        for chosen in itertools.combinations(edges, r):
            yield sorted([c - 1.0, c + 1.0, c, *chosen], reverse=True), len(edges) - r


def _counted(spectrum, thresholds):
    # (counts from above, multiplicities) at each threshold, the comparisons
    # written out eigenvalue by eigenvalue
    return ([sum(v >= t - INT_TOL for v in spectrum) for t in thresholds],
            [sum(abs(v - t) <= INT_TOL for v in spectrum) for t in thresholds])


@pytest.mark.parametrize("c", [0, 12])
def test_counts_at_the_tolerance_boundary(c):
    # every boundary spectrum counted alone equals the comparisons written out
    thresholds = [c, c - 1, c + 1]
    for spectrum, _ in _boundary_spectra(c):
        alone = np.array(spectrum)
        assert (counts_at_least(alone, thresholds).tolist(),
                multiplicities(alone, thresholds).tolist()) == _counted(spectrum, thresholds)
    # the step below c - INT_TOL is not counted from above, and c - INT_TOL is
    lo = c - INT_TOL
    assert counts_at_least(np.array([math.nextafter(lo, -math.inf)]), [c]).tolist() == [0]
    assert counts_at_least(np.array([lo]), [c]).tolist() == [1]


@pytest.mark.parametrize("c", [0, 12])
def test_column_counts_at_the_tolerance_boundary(c):
    # the column form of the test above: every boundary spectrum is one row of
    # a stack (filled up with c - 1.0, which neither count takes), counted at
    # once against a threshold column and against a (B, 3) threshold matrix,
    # and each row equals the comparisons written out for its spectrum
    thresholds = [c, c - 1, c + 1]
    rows = [spectrum + [c - 1.0] * fill for spectrum, fill in _boundary_spectra(c)]
    values = np.array(rows)
    assert values.shape == (2 ** 6, 3 + 6)
    at_least, near = (list(counts) for counts in zip(*(_counted(r, thresholds) for r in rows)))
    column = np.full(len(rows), c)
    assert counts_at_least(values, column).tolist() == [row[0] for row in at_least]
    assert multiplicities(values, column).tolist() == [row[0] for row in near]
    assert multiplicities(values, c).tolist() == [row[0] for row in near]
    matrix = np.array([thresholds] * len(rows))
    assert counts_at_least(values[:, None], matrix).tolist() == at_least
    assert multiplicities(values[:, None], matrix).tolist() == near
    # the step below c - INT_TOL is not counted from above, and c - INT_TOL is
    lo = c - INT_TOL
    assert counts_at_least(np.array([[math.nextafter(lo, -math.inf)], [lo]]), c).tolist() == [0, 1]


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
    assert counts_at_least(sp, n + ceil_n_k) == sum(
        p - 1 for p in parts if p >= ceil_n_k)


# ---------------------------------------------------------------------------
# spectral invariants on the corpus
# ---------------------------------------------------------------------------

def test_spectral_sanity_small_corpus(corpus_analyses):
    for n in range(1, 7):
        for a in corpus_analyses[n]:
            vals = np.array(a.values)
            assert multiplicities(vals, 0) == 1  # simple zero
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


# ---------------------------------------------------------------------------
# domination by the complete multipartite graph of a coloring
# ---------------------------------------------------------------------------
# For a proper coloring P of a connected graph G, G is a subgraph of the
# complete multipartite graph K_P on P's classes, and d_G(u, v) >= d_K_P(u, v)
# for every pair (1 across classes, 2 within one). DL(G) - DL(K_P) is the sum
# of the edge Laplacians L_uv weighted by d_G - d_K_P >= 0, so it is positive
# semidefinite, and by Weyl lambda_i(G) >= lambda_i(K_P) for every i. The
# gaps sum to the trace difference 2(W(G) - W(K_P)), W(K_P) = C(n, 2) +
# sum_j C(l_j, 2). Every check takes delta = 1e-9 * n; a violation is a fault
# of the program (its coloring, spectrum or Wiener index), never a reason to
# widen delta.

def assert_dominated(a):
    """The spectrum of `a` dominates that of K_P, and the gaps sum to twice
    the Wiener gap, for P the program's coloring and, where n <= 16, for
    P = {a maximum independent set, singletons}."""
    delta = 1e-9 * a.n
    partitions = [a.sizes]
    if a.n <= 16:
        alpha = max(mask.bit_count() for mask in _maximal_independent_sets(a.graph.adj, 1))
        partitions.append([alpha, *[1] * (a.n - alpha)])
    for parts in partitions:
        gaps = np.array(a.values) - multipartite_spectrum_closed_form(parts)
        wiener_k_p = math.comb(a.n, 2) + sum(math.comb(size, 2) for size in parts)
        assert gaps.min() >= -delta, (a.graph6, parts, gaps.min())
        assert abs(gaps.sum() - 2 * (a.wiener - wiener_k_p)) <= delta * a.n, (a.graph6, parts)


def test_spectrum_dominates_the_complete_multipartite_graph_of_a_coloring(mode_corpus_analyses):
    # every connected graph with 2 <= n <= 7 in both coloring modes, then 40
    # seeded sparse connected graphs with n 9..64 (density <= 0.3; max-l1 too
    # where n <= 16); about 0.4 s
    for mode in ("default", "max-l1"):
        for n in range(2, 8):
            for a in mode_corpus_analyses[mode, n]:
                assert_dominated(a)
    rng = random.Random(18)
    for _ in range(40):
        g = random_connected_graph(rng, 9, 64, 0.05, 0.3)
        for mode in ("default", "max-l1")[:1 + (g.n <= 16)]:
            assert_dominated(analyze(g, mode))


def test_complete_multipartite_graphs_meet_every_block_bound_exactly():
    # on K_P itself the domination is equality: every block_j slack is 0
    # within delta = 1e-9 * n, and every claim holds
    rng = random.Random(180)
    for _ in range(60):
        n = rng.randint(2, 64)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 12))))
        report = run_checks(analyze(gen_complete_multipartite(
            [b - a for a, b in zip([0, *cuts], [*cuts, n])])))
        assert report.ok, report.head.graph6
        blocks = {label: slack for r in report.results if r.check_id == "color_majorization"
                  for label, slack in r.slack.items()}
        assert all(abs(slack) <= 1e-9 * n for slack in blocks.values()), (report.head, blocks)

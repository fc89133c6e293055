"""Exact graph coloring: DSATUR branch and bound plus a max-largest-class search."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from distlap.graphs import Graph, _bits, _complement_masks, _quotient_masks

MAX_ELL1_VERTICES = 16
PLAIN_NODES = 1000  # plain backtracking nodes before _k_colorable turns to _extend
CLIQUE_NODES = 20000  # search nodes for k colors before _chromatic looks for a (k+1)-clique

GreedyStart = tuple[list[int], int]  # a graph's greedy DSATUR coloring and greedy clique size


def _greedy_clique(adj: Sequence[int]) -> list[int]:
    """Greedily grown clique (chromatic lower bound) of the graph with neighbor
    masks `adj`: each step takes a vertex of highest degree, lowest index
    first; deterministic."""
    degree = [a.bit_count() for a in adj]
    start = degree.index(max(degree))
    clique = [start]
    common = adj[start]
    while common:
        v = max(_bits(common), key=degree.__getitem__)  # max keeps the first of equals
        clique.append(v)
        common &= adj[v]
    return clique


class _OverBudget(Exception):
    pass


def _search(adj: Sequence[int], k: int, budget: float = math.inf,
            feasible: Callable[[int, int, list[int]], bool] | None = None) -> list[int] | None:
    """The first proper coloring of the graph with neighbor masks `adj` in
    colors 0..k-1, or None if there is none.

    DSATUR backtracking (Brelaz 1979): the next vertex is an uncolored one
    that sees the most colors, ties going to the lowest index. Its colors are
    tried lowest first, and of the colors nobody holds yet only the lowest. A
    branch is cut as soon as an uncolored vertex sees all k colors, and is
    not entered if `feasible(v, c, colors)` says no (v still uncolored in
    `colors`). With k = n nothing is ever cut, because no vertex can see n
    colors, so the result is greedy DSATUR; for a stack of graphs,
    greedy_starts computes that case for all of them at once. Past `budget`
    nodes it raises _OverBudget.

    The search keeps masks, not per-vertex counts: seen[c] holds the
    neighbors of the vertices colored c, and level[s] the uncolored vertices
    that see s colors. Coloring a vertex moves its neighbors up one level a
    whole mask at a time, and the next vertex is the lowest of the highest
    nonempty level. A branch is cut before any of that, when one of the
    neighbors it raises already sees k - 1 colors.
    """
    n = len(adj)
    colors = [-1] * n
    seen = [0] * k

    def rec(left: int, level: list[int], top: int, held: int) -> bool:
        nonlocal budget
        if not left:
            return True
        budget -= 1
        if budget < 0:
            raise _OverBudget
        s = top
        while not level[s]:
            s -= 1
        bit = level[s] & -level[s]
        v = bit.bit_length() - 1
        nbrs = adj[v]
        left ^= bit
        for c in range(held + 1 if held < k else k):  # the held colors and one fresh
            mask = seen[c]
            if mask & bit:
                continue
            rise = nbrs & left & ~mask
            if rise & level[k - 1] or feasible is not None and not feasible(v, c, colors):
                continue
            colors[v] = c
            up = level.copy()
            up[s] ^= bit
            t = s
            while rise:  # from the top down, so no vertex moves twice
                moved = up[t] & rise
                if moved:
                    up[t] ^= moved
                    up[t + 1] |= moved
                    rise ^= moved
                t -= 1
            seen[c] = mask | nbrs
            if rec(left, up, s + 1, held + (c == held)):
                return True
            seen[c] = mask
            colors[v] = -1
        return False

    try:
        return colors if rec((1 << n) - 1, [(1 << n) - 1] + [0] * k, 0, 0) else None
    finally:
        del rec  # rec holds itself through its closure: break the cycle for refcounting


def greedy_starts(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n) array of _search(adj, n) and the (B,) array of
    len(_greedy_clique(adj)) for the graphs of a (B, n, n) boolean adjacency
    stack, computed for the whole stack at once. Row b of both is graph b's
    GreedyStart.

    Greedy DSATUR (_search with k = n) never backtracks, so it is n rounds of
    the same few array operations on every graph: the uncolored vertex that
    sees the most colors, lowest index first, takes the lowest color it does
    not see. seen[b, c] marks the neighbors of graph b's vertices colored c,
    as _search's masks do. The greedy clique grows the same way, by highest
    degree, then lowest index, while some vertex is adjacent to all of it.
    """
    b, n, _ = adjacency.shape
    rows = np.arange(b)
    colors = np.zeros((b, n), dtype=np.int64)
    # the colors each uncolored vertex sees; a colored vertex is set to -n and
    # climbs at most n - 1 after that, so argmax never picks it again
    sees = np.zeros((b, n), dtype=np.int64)
    seen = np.zeros(adjacency.shape, dtype=bool)
    for _ in range(n):
        v = sees.argmax(axis=1)  # argmax keeps the first of equals
        c = seen[rows, :, v].argmin(axis=1)
        nbrs = adjacency[rows, v]
        held = seen[rows, c]
        sees += nbrs > held
        sees[rows, v] = -n
        seen[rows, c] = held | nbrs
        colors[rows, v] = c

    degree = adjacency.sum(axis=2)
    common = adjacency[rows, degree.argmax(axis=1)]
    size = np.ones(b, dtype=np.int64)
    while common.any():
        size += common.any(axis=1)
        common &= adjacency[rows, np.where(common, degree, -1).argmax(axis=1)]
    return colors, size


def _by_degree(adj: Sequence[int]) -> Callable[..., list[int] | None]:
    """(k, budget) -> _search's coloring in k colors, or None, with ties
    going to the highest degree, then the lowest index; past `budget` nodes
    (none by default) it raises _OverBudget.

    The graph is relabeled once, by degree descending and index ascending, so
    that _search's lowest-index tie rule picks the vertex this rule picks;
    each coloring is mapped back to the caller's labels.
    """
    order = sorted(range(len(adj)), key=lambda v: -adj[v].bit_count())  # stable: ties by index
    relabeled = _quotient_masks(adj, [[v] for v in order])

    def color(k: int, budget: float = math.inf) -> list[int] | None:
        found = _search(relabeled, k, budget)
        if found is None:
            return None
        out = [0] * len(adj)
        for v, c in zip(order, found):
            out[v] = c
        return out

    return color


def _extend(adj: Sequence[int], k: int, partial: Sequence[int]) -> list[int] | None:
    """A proper coloring with colors 0..k-1 of the graph with neighbor masks
    `adj` that extends `partial` (-1 marks an uncolored vertex), or None.

    Each color class of `partial` is merged into one vertex, the merged
    vertices are joined into a clique, and _by_degree colors that graph; its
    colors are then renamed to match `partial`. Searching the merged graph
    with no color fixed, rather than the graph with colors pinned, leaves the
    search free to pick its own order, and it refutes dead branches with far
    fewer nodes.
    """
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(partial):
        if c >= 0:
            classes.setdefault(c, []).append(v)
    held = sorted(classes)
    groups = [classes[c] for c in held] + [[v] for v, c in enumerate(partial) if c < 0]
    merged = _quotient_masks(adj, groups)
    clique = (1 << len(held)) - 1
    for i in range(len(held)):
        merged[i] = (merged[i] | clique) & ~(1 << i)
    colors = _by_degree(merged)(k)
    if colors is None:
        return None
    rename = dict(zip(colors, held))  # the first len(held) groups hold distinct colors
    spare = (c for c in range(k) if c not in classes)
    for c in range(k):
        if c not in rename:
            rename[c] = next(spare)
    out = [0] * len(adj)
    for group, c in zip(groups, colors):
        for v in group:
            out[v] = rename[c]
    return out


def _k_colorable(adj: Sequence[int], k: int,
                 witness: list[int] | None = None) -> list[int] | None:
    """The first proper coloring with at most k colors of the graph with
    neighbor masks `adj`, or None.

    "First" is in the order of plain backtracking: _search, ties by lowest
    index. So the result is deterministic for a fixed labeling. `witness`, if
    given, is any proper k-coloring.

    Plain backtracking can spend seconds in branches that hold no coloring,
    so it runs for at most PLAIN_NODES nodes. After that the same search runs
    again, entering only branches that hold a coloring, so it never
    backtracks. A witness that extends the colors fixed so far answers that
    for its own color, and for a fresh one by renaming; otherwise _extend
    answers, and its coloring becomes the witness. The result only needs the
    test never to refuse a branch that holds a coloring.
    """
    try:
        return _search(adj, k, budget=PLAIN_NODES)
    except _OverBudget:
        pass
    if witness is None:
        witness = _by_degree(adj)(k)
        if witness is None:
            return None

    def feasible(v: int, c: int, colors: list[int]) -> bool:
        nonlocal witness
        w = witness[v]
        if c == w:
            return True
        if c not in colors:  # w is a color nobody holds yet either: rename w and c
            witness = [c if x == w else w if x == c else x for x in witness]
            return True
        found = _extend(adj, k, colors[:v] + [c] + colors[v + 1:])
        if found is None:
            return False
        witness = found
        return True

    return _search(adj, k, feasible=feasible)


def _chromatic(adj: Sequence[int], start: GreedyStart | None = None
               ) -> tuple[int, list[int], list[int]]:
    """The chromatic number, the greedy DSATUR coloring, and a coloring that
    attains the chromatic number, searching down from one color fewer than
    greedy uses. `start`, if given, is the graph's entry of greedy_starts:
    the greedy coloring and the greedy clique's size.

    The greedy clique can be smaller than the largest, and refuting k
    colors by search alone can then take longer than any caller waits. So
    each search for k colors runs for at most CLIQUE_NODES nodes first; if
    it runs out, a clique of k + 1 vertices ends the descent, since it
    refutes k colors, and without one the search runs again unbounded. A
    search that ends within the budget returns what the unbounded one
    would, so the colors are the same either way."""
    greedy, lb = start or (_search(adj, len(adj)), len(_greedy_clique(adj)))
    best = greedy
    k = max(greedy)
    if k >= lb:
        search = _by_degree(adj)
        while k >= lb:
            try:
                found = search(k, CLIQUE_NODES)
            except _OverBudget:
                found = None if _maximal_cliques(adj, k + 1, limit=1) else search(k)
            if found is None:
                break
            best = found
            k -= 1
    return k + 1, greedy, best


def optimal_colors(g: Graph, start: GreedyStart | None = None) -> list[int]:
    """The color of each vertex in the greedy coloring if it is optimal, else
    in the first optimal one: deterministic for a fixed vertex labeling;
    `start` as for _chromatic."""
    chi, greedy, witness = _chromatic(g.adj, start)
    return greedy if chi == max(greedy) + 1 else _k_colorable(g.adj, chi, witness)


def _maximal_cliques(adj: Sequence[int], floor: int, limit: float = math.inf) -> list[int]:
    """The maximal cliques with at least `floor` vertices, as bitmasks, in the
    order found, stopping once `limit` are found.

    Bron-Kerbosch, pivoting on the lowest vertex of P | X; any pivot lists
    every maximal clique exactly once. Every clique listed below a node
    (R, P, X) lies between R and R | P, so a node with |R| + |P| < floor is
    cut.
    """
    out: list[int] = []

    def expand(r: int, size: int, p: int, x: int) -> None:
        if size + p.bit_count() < floor:
            return
        if not p:
            if not x:
                out.append(r)
                if len(out) >= limit:
                    raise _OverBudget  # ends the walk; checked only where a set is found
            return
        pool = p | x
        pivot = (pool & -pool).bit_length() - 1
        for v in _bits(p & ~adj[pivot]):
            expand(r | 1 << v, size + 1, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    try:
        expand(0, 0, (1 << len(adj)) - 1, 0)
    except _OverBudget:
        pass
    finally:
        del expand  # as in _search: expand holds itself through its closure
    return out


def _maximal_independent_sets(adj: Sequence[int], floor: int) -> list[int]:
    """The maximal independent sets with at least `floor` vertices, as
    bitmasks: the maximal cliques of the complement."""
    return _maximal_cliques(_complement_masks(adj), floor)


def max_ell1_colors(g: Graph, start: GreedyStart | None = None) -> list[int]:
    """The color of each vertex in an optimal coloring whose largest class is
    as big as possible.

    Tries each maximal independent set of size >= ceil(n/chi) as the first
    class, largest first, and keeps the first whose removal leaves a
    (chi-1)-colorable graph. Guarded to n <= 16. `start` as for _chromatic.
    """
    if g.n > MAX_ELL1_VERTICES:
        raise ValueError(f"max-l1 coloring is guarded to n <= {MAX_ELL1_VERTICES}")
    chi = _chromatic(g.adj, start)[0]
    candidates = _maximal_independent_sets(g.adj, math.ceil(g.n / chi))
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    for mask in candidates:
        # the neighbor masks of what the class leaves, renumbered in order
        rest = [v for v in range(g.n) if not mask >> v & 1]
        sub_colors = _k_colorable(_quotient_masks(g.adj, [[v] for v in rest]), chi - 1)
        if sub_colors is None:
            continue
        colors = [0] * g.n
        for v, c in zip(rest, sub_colors):
            colors[v] = c + 1
        return colors
    raise RuntimeError("no optimal coloring found; chromatic number inconsistent")

"""Exact graph coloring: DSATUR branch and bound plus a max-largest-class search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from distlap.graphs import Graph, _bits, complement, induced_subgraph

MAX_ELL1_VERTICES = 16
PLAIN_NODES = 1000  # plain backtracking nodes before _k_colorable turns to _extend


@dataclass(frozen=True)
class ColoringResult:
    """An optimal proper coloring with sizes sorted nonincreasing."""

    chi: int
    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    b_chi: int  # n + ceil(n / chi)


def is_proper(g: Graph, classes: Iterable[Iterable[int]]) -> bool:
    """True iff no class contains an edge; raises if classes do not partition V."""
    blocks = [sorted(c) for c in classes]
    flat = sorted(v for b in blocks for v in b)
    if flat != list(range(g.n)):
        raise ValueError("classes do not partition the vertex set")
    for block in blocks:
        mask = 0
        for v in block:
            mask |= 1 << v
        for v in block:
            if g.adj[v] & mask:
                return False
    return True


def _dsatur_greedy(g: Graph) -> list[int]:
    """Greedy DSATUR coloring; ties broken by lowest vertex index."""
    n = g.n
    colors = [-1] * n
    nb_colors = [0] * n  # bitmask of colors on colored neighbors
    for _ in range(n):
        best, best_sat = -1, -1
        for v in range(n):
            if colors[v] < 0:
                sat = nb_colors[v].bit_count()
                if sat > best_sat:
                    best, best_sat = v, sat
        c = 0
        while nb_colors[best] >> c & 1:
            c += 1
        colors[best] = c
        for u in _bits(g.adj[best]):
            if colors[u] < 0:
                nb_colors[u] |= 1 << c
    return colors


def _greedy_clique(g: Graph) -> list[int]:
    """Greedily grown clique (chromatic lower bound); deterministic."""
    n = g.n
    start = max(range(n), key=lambda v: (g.degree(v), -v))
    clique = [start]
    common = g.adj[start]
    while common:
        v = max(_bits(common), key=lambda u: (g.degree(u), -u))
        clique.append(v)
        common &= g.adj[v]
    return clique


def _search(adj: Sequence[int], k: int) -> list[int] | None:
    """A proper coloring of the graph with neighbor masks `adj` in colors
    0..k-1, or None if there is none.

    Complete DSATUR branch and bound: ties go to the vertex of highest
    degree, only the lowest of the colors nobody holds yet is tried, and a
    branch is cut as soon as an uncolored vertex sees all k colors. Which
    coloring it returns is unspecified.
    """
    n = len(adj)
    full = (1 << k) - 1
    colors = [-1] * n
    nb_colors = [0] * n
    neighbors = [list(_bits(a)) for a in adj]
    keys = [len(nbrs) for nbrs in neighbors]  # 64 * colors seen + degree; -1 once colored

    def rec(left: int, held: int) -> bool:
        if not left:
            return True
        v = keys.index(max(keys))
        key, keys[v] = keys[v], -1
        avail = full & ~nb_colors[v]
        fresh = full & ~held
        avail &= ~fresh | (fresh & -fresh)
        while avail:
            bit = avail & -avail
            avail ^= bit
            colors[v] = bit.bit_length() - 1
            touched = [u for u in neighbors[v] if keys[u] >= 0 and not nb_colors[u] & bit]
            alive = True
            for u in touched:
                nb_colors[u] |= bit
                keys[u] += 64
                alive = alive and nb_colors[u] != full
            if alive and rec(left - 1, held | bit):
                return True
            for u in touched:
                nb_colors[u] ^= bit
                keys[u] -= 64
        keys[v] = key
        colors[v] = -1
        return False

    return colors if k > 0 and rec(n, 0) else None


def _extend(g: Graph, k: int, partial: Sequence[int]) -> list[int] | None:
    """A proper coloring with colors 0..k-1 extending `partial` (-1 marks an
    uncolored vertex), or None if there is none.

    Each color class of `partial` is merged into one vertex, the merged
    vertices are joined into a clique, and _search colors that graph; its
    colors are then renamed to match `partial`. Searching the merged graph
    with no color fixed, rather than `g` with colors pinned, leaves the
    search free to pick its own order, and it refutes dead branches with far
    fewer nodes.
    """
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(partial):
        if c >= 0:
            classes.setdefault(c, []).append(v)
    held = sorted(classes)
    groups = [classes[c] for c in held] + [[v] for v, c in enumerate(partial) if c < 0]
    where = [0] * g.n
    for i, group in enumerate(groups):
        for v in group:
            where[v] = i
    clique = (1 << len(held)) - 1
    adj = []
    for i, group in enumerate(groups):
        mask = clique if i < len(held) else 0
        for v in group:
            for u in _bits(g.adj[v]):
                mask |= 1 << where[u]
        adj.append(mask & ~(1 << i))
    colors = _search(adj, k)
    if colors is None:
        return None
    rename = dict(zip(colors, held))  # the first len(held) groups hold distinct colors
    spare = (c for c in range(k) if c not in classes)
    for c in range(k):
        if c not in rename:
            rename[c] = next(spare)
    return [rename[colors[where[v]]] for v in range(g.n)]


class _OverBudget(Exception):
    pass


def _k_colorable(g: Graph, k: int, witness: list[int] | None = None) -> list[int] | None:
    """The first proper coloring with at most k colors, or None if there is none.

    "First" is in the order of plain backtracking: vertices in DSATUR order
    (ties by lowest index), colors lowest first, at most one fresh color per
    step. So the result is deterministic for a fixed labeling. `witness`, if
    given, is any proper k-coloring.

    Plain backtracking can spend seconds in branches that hold no coloring,
    so it runs for at most PLAIN_NODES nodes. After that the first coloring
    is built one vertex at a time, in the same order: each vertex takes the
    lowest color whose branch holds a coloring. A witness coloring that
    extends the colors fixed so far answers that for its own color; _extend
    answers it for the colors below, and its coloring becomes the witness.
    """
    n = g.n
    if k <= 0:
        return None
    colors = [-1] * n
    nb_colors = [0] * n
    sat = [0] * n  # colors seen by each uncolored vertex; -1 once colored
    neighbors = [list(_bits(a)) for a in g.adj]
    budget = PLAIN_NODES

    def pick() -> int:
        return sat.index(max(sat))

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        sat[v] = -1
        bit = 1 << c
        touched = [u for u in neighbors[v] if sat[u] >= 0 and not nb_colors[u] & bit]
        for u in touched:
            nb_colors[u] |= bit
            sat[u] += 1
        return touched

    def rec(done: int, used: int) -> bool:
        nonlocal budget
        if done == n:
            return True
        budget -= 1
        if budget < 0:
            raise _OverBudget
        v = pick()
        for c in range(min(used, k - 1) + 1):  # colors 0..used-1 plus at most one fresh
            if nb_colors[v] >> c & 1:
                continue
            touched = assign(v, c)
            if rec(done + 1, max(used, c + 1)):
                return True
            for u in touched:
                nb_colors[u] ^= 1 << c
                sat[u] -= 1
            colors[v] = -1
            sat[v] = nb_colors[v].bit_count()
        return False

    try:
        return colors if rec(0, 0) else None
    except _OverBudget:
        colors[:] = [-1] * n
        nb_colors[:] = [0] * n
        sat[:] = [0] * n
    if witness is None:
        witness = _extend(g, k, colors)
        if witness is None:
            return None
    used = 0
    for _ in range(n):
        v = pick()
        for c in range(min(used, k - 1) + 1):
            if nb_colors[v] >> c & 1:
                continue
            w = witness[v]
            if c == w:
                break
            if c == used:  # w is a color nobody holds yet: rename w and c
                witness = [c if x == w else w if x == c else x for x in witness]
                break
            colors[v] = c
            found = _extend(g, k, colors)
            if found is not None:
                witness = found
                break
        assign(v, c)
        used = max(used, c + 1)
    return colors


def _chromatic(g: Graph, greedy: list[int]) -> tuple[int, list[int]]:
    """The chromatic number and a coloring that attains it, searching down
    from one color fewer than `greedy` uses."""
    best = greedy
    k = max(greedy)
    lb = len(_greedy_clique(g))
    while k >= lb:
        found = _search(g.adj, k)
        if found is None:
            break
        best = found
        k -= 1
    return k + 1, best


def _best_coloring(g: Graph) -> list[int]:
    """The greedy coloring if it is optimal, else the first optimal one."""
    greedy = _dsatur_greedy(g)
    chi, witness = _chromatic(g, greedy)
    return greedy if chi == max(greedy) + 1 else _k_colorable(g, chi, witness)


def _to_result(g: Graph, colors: Sequence[int]) -> ColoringResult:
    chi = max(colors) + 1
    by_color: list[list[int]] = [[] for _ in range(chi)]
    for v, c in enumerate(colors):
        by_color[c].append(v)
    ordered = sorted(by_color, key=lambda block: (-len(block), block))
    classes = tuple(tuple(block) for block in ordered)
    sizes = tuple(len(block) for block in ordered)
    return ColoringResult(chi=chi, classes=classes, sizes=sizes,
                          b_chi=g.n + math.ceil(g.n / chi))


def chromatic_number(g: Graph) -> int:
    return _chromatic(g, _dsatur_greedy(g))[0]


def optimal_coloring(g: Graph) -> ColoringResult:
    """One optimal coloring, deterministic for a fixed vertex labeling."""
    return _to_result(g, _best_coloring(g))


def _maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets as bitmasks (Bron-Kerbosch on the complement)."""
    comp = complement(g)
    out: list[int] = []
    full = (1 << g.n) - 1

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda u: (comp.adj[u] & p).bit_count())
        for v in _bits(p & ~comp.adj[pivot]):
            expand(r | 1 << v, p & comp.adj[v], x & comp.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, full, 0)
    return out


def max_ell1_coloring(g: Graph) -> ColoringResult:
    """Among all optimal colorings, one whose largest class is as big as possible.

    Tries each maximal independent set of size >= ceil(n/chi) as the first
    class, largest first, and keeps the first whose removal leaves a
    (chi-1)-colorable graph. Guarded to n <= 16.
    """
    if g.n > MAX_ELL1_VERTICES:
        raise ValueError(f"max_ell1_coloring is guarded to n <= {MAX_ELL1_VERTICES}")
    chi = chromatic_number(g)
    if chi == 1:
        return _to_result(g, [0] * g.n)

    floor_needed = math.ceil(g.n / chi)
    candidates = [m for m in _maximal_independent_sets(g) if m.bit_count() >= floor_needed]
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    for mask in candidates:
        members = list(_bits(mask))
        rest = [v for v in range(g.n) if not mask >> v & 1]
        sub, old = induced_subgraph(g, rest)
        sub_colors = _k_colorable(sub, chi - 1)
        if sub_colors is None:
            continue
        colors = [0] * g.n
        for v in members:
            colors[v] = 0
        for i, c in enumerate(sub_colors):
            colors[old[i]] = c + 1
        return _to_result(g, colors)
    raise RuntimeError("no optimal coloring found; chromatic number inconsistent")

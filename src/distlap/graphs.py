"""Bitset-backed simple graphs: graph6 I/O, generators, canonical forms, enumeration.

Vertices are 0..n-1 and every neighborhood is a single int bitmask, so graphs
up to 64 vertices fit in one machine word per row. All operations return new
Graph values; instances are immutable and safe to share across workers.
"""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64

# Brute-force canonicalization is guarded to this size.
CANONICAL_MAX_VERTICES = 8

# Connected isomorphism classes served from committed fixture files.
FIXTURE_COUNTS = {7: 853, 8: 11117}


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"neighbor bit out of range at vertex {v}")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in _bits(mask):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle through __init__, since __setattr__ blocks the default path
        return (type(self), (self.n, self.adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(mask.bit_count() for mask in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            mask = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(mask):
                out.append((u, v))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# graph6 codec (McKay format, no ">>graph6<<" header)
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Parse a single graph6 record into a Graph.

    Bits are the upper triangle in column order x(0,1), x(0,2), x(1,2),
    x(0,3), ... packed MSB-first into 6-bit chunks offset by 63.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 record")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError("graph6 record contains non-ASCII bytes") from exc

    if data[0] == 126:  # '~': multi-byte size form
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6 size exceeds supported range")
        if len(data) < 4:
            raise ValueError("malformed graph6 length bytes")
        n = 0
        for b in data[1:4]:
            if not 63 <= b <= 126:
                raise ValueError("malformed graph6 length bytes")
            n = n << 6 | (b - 63)
        body = data[4:]
    else:
        if not 63 <= data[0] <= 126:
            raise ValueError("malformed graph6 length byte")
        n = data[0] - 63
        body = data[1:]

    if n == 0:
        raise ValueError("graph6 record encodes an empty graph (n=0)")
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 record has n={n} > {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) > nbytes:
        raise ValueError("trailing garbage after graph6 record")
    if len(body) < nbytes:
        raise ValueError("truncated graph6 record")

    acc = 0
    for b in body:
        if not 63 <= b <= 126:
            raise ValueError(f"invalid graph6 data byte {b!r}")
        acc = acc << 6 | (b - 63)
    pad = 6 * nbytes - nbits
    if acc & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 record")
    acc >>= pad

    adj = [0] * n
    idx = nbits - 1
    for col in range(1, n):
        for row in range(col):
            if acc >> idx & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            idx -= 1
    return Graph(n, adj)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string (inverse of parse_graph6)."""
    n = g.n
    acc = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (g.adj[row] >> col & 1)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    acc <<= 6 * nbytes - nbits

    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out += bytes((126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)))
    for k in range(nbytes - 1, -1, -1):
        out.append(63 + (acc >> 6 * k & 63))
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format: first line "n", then one "u v" line per edge (0-indexed)
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the 0-indexed edge-list format; duplicate edge lines collapse."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge list")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop line {ln!r}")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full & ~mask & ~(1 << v) for v, mask in enumerate(g.adj)])


def connected_components(g: Graph) -> list[list[int]]:
    """Partition vertices into maximal connected blocks, ordered by least member."""
    seen = 0
    comps = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(list(_bits(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if u == v:
        raise ValueError("cannot add a self-loop")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, adj)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) not present")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, adj)


def relabel(g: Graph, order: Sequence[int]) -> Graph:
    """Relabel so that new vertex i is old vertex order[i]."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    adj = [0] * g.n
    for i, v in enumerate(order):
        for u in _bits(g.adj[v]):
            adj[i] |= 1 << pos[u]
    return Graph(g.n, adj)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph plus the new->old vertex mapping."""
    verts = sorted(set(vertices))
    if not verts:
        raise ValueError("induced subgraph needs at least one vertex")
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in _bits(g.adj[v]):
            if u in pos:
                adj[i] |= 1 << pos[u]
    return Graph(len(verts), adj), verts


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def validate_part_sizes(parts: Iterable[int]) -> tuple[int, ...]:
    """Normalize multipartite part sizes: positive ints, nonincreasing, sum <= 64."""
    out = tuple(sorted((int(p) for p in parts), reverse=True))
    if not out:
        raise ValueError("at least one part required")
    if out[-1] < 1:
        raise ValueError("part sizes must be >= 1")
    if sum(out) > MAX_VERTICES:
        raise ValueError(f"total vertex count exceeds {MAX_VERTICES}")
    return out


def gen_complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph; vertices grouped consecutively by part."""
    sizes = validate_part_sizes(parts)
    n = sum(sizes)
    adj = [0] * n
    full = (1 << n) - 1
    off = 0
    for p in sizes:
        part_mask = ((1 << p) - 1) << off
        for v in range(off, off + p):
            adj[v] = full & ~part_mask
        off += p
    return Graph(n, adj)


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    return gen_complete_multipartite([1] * n)


def gen_double_star(a: int, b: int) -> Graph:
    """Two adjacent centers with degrees a and b (so n = a + b)."""
    if a < 1 or b < 1:
        raise ValueError("center degrees must be >= 1")
    edges = [(0, 1)]
    k = 2
    edges += [(0, k + i) for i in range(a - 1)]
    k += a - 1
    edges += [(1, k + i) for i in range(b - 1)]
    return Graph.from_edges(a + b, edges)


def gen_g_ind() -> Graph:
    """7-vertex example: edge {x,y}=(0,1), four common neighbors 2..5, pendant 6 on x."""
    edges = [(0, 1), (6, 0)]
    edges += [(u, 0) for u in (2, 3, 4, 5)]
    edges += [(u, 1) for u in (2, 3, 4, 5)]
    return Graph.from_edges(7, edges)


def gen_g_clq() -> Graph:
    """8-vertex example: triangle 0,1,2; vertices 3,4 joined to it and each other;
    tail 3-5-6-7."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (5, 6), (6, 7)]
    edges += [(3, x) for x in (0, 1, 2)]
    edges += [(4, x) for x in (0, 1, 2)]
    return Graph.from_edges(8, edges)


def gen_comp_s62() -> Graph:
    """Complement of the double star with center degrees 6 and 2."""
    return complement(gen_double_star(6, 2))


def gen_named(name: str, *params: int) -> Graph:
    """Dispatch generator by family name.

    Names: path(n), cycle(n), complete(n), double_star(a,b), G_ind, G_clq, comp_S62.
    """
    table = {
        "path": (gen_path, 1),
        "cycle": (gen_cycle, 1),
        "complete": (gen_complete, 1),
        "double_star": (gen_double_star, 2),
        "G_ind": (gen_g_ind, 0),
        "G_clq": (gen_g_clq, 0),
        "comp_S62": (gen_comp_s62, 0),
    }
    if name not in table:
        raise ValueError(f"unknown graph family {name!r}")
    fn, arity = table[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# ---------------------------------------------------------------------------
# canonical form: lexicographic minimum of the column-order upper-triangle
# bit string over all vertex orderings, returned as canonical graph6 bytes
# ---------------------------------------------------------------------------

def _min_ordering(g: Graph) -> list[int]:
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    best: list[list[int] | None] = [None]
    best_order: list[list[int] | None] = [None]
    cur: list[int] = []
    order: list[int] = []

    def rec(depth: int, used: int) -> None:
        if depth == n:
            if best[0] is None or cur < best[0]:
                best[0] = cur.copy()
                best_order[0] = order.copy()
            return
        rem = full & ~used
        cands = []
        for v in _bits(rem):
            block = 0
            for u in order:
                block = block << 1 | (adj[u] >> v & 1)
            cands.append((block, v))
        cands.sort()

        kept_same_block: list[int] = []
        prev_block = -1
        for block, v in cands:
            if best[0] is not None and cur == best[0][:depth] and block > best[0][depth]:
                break  # sorted: every later candidate is worse
            if block != prev_block:
                kept_same_block = []
                prev_block = block
            # skip v if it is a twin of an already-explored candidate with the
            # same block: the transposition is an automorphism of the rest
            twin = False
            for u in kept_same_block:
                rest = rem & ~(1 << u) & ~(1 << v)
                if adj[u] & rest == adj[v] & rest:
                    twin = True
                    break
            if twin:
                continue
            kept_same_block.append(v)
            cur.append(block)
            order.append(v)
            rec(depth + 1, used | 1 << v)
            cur.pop()
            order.pop()

    rec(0, 0)
    assert best_order[0] is not None
    return best_order[0]


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 bytes; identical for isomorphic graphs (n <= 8 only)."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(f"canonical_form is guarded to n <= {CANONICAL_MAX_VERTICES}")
    return to_graph6(relabel(g, _min_ordering(g))).encode("ascii")


# ---------------------------------------------------------------------------
# exhaustive enumeration of connected isomorphism classes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _all_classes_g6(n: int) -> tuple[str, ...]:
    """Canonical graph6 strings of all isomorphism classes on n vertices (n <= 8)."""
    if n == 1:
        return ("@",)
    seen: set[str] = set()
    for s in _all_classes_g6(n - 1):
        g = parse_graph6(s)
        base = list(g.adj) + [0]
        for nb in range(1 << (n - 1)):
            adj = base.copy()
            adj[n - 1] = nb
            for u in _bits(nb):
                adj[u] |= 1 << (n - 1)
            seen.add(canonical_form(Graph(n, adj)).decode("ascii"))
    return tuple(sorted(seen))


@functools.lru_cache(maxsize=None)
def _connected_classes_g6(n: int) -> tuple[str, ...]:
    return tuple(s for s in _all_classes_g6(n) if is_connected(parse_graph6(s)))


def _fixture_lines(n: int, corpus_dir: str | Path | None) -> list[str]:
    name = f"connected{n}.g6"
    if corpus_dir is not None:
        path = Path(corpus_dir) / name
        if not path.is_file():
            raise FileNotFoundError(f"missing fixture file {path}")
        text = path.read_text()
    else:
        ref = resources.files("distlap.data").joinpath(name)
        if not ref.is_file():
            raise FileNotFoundError(f"missing packaged fixture {name}")
        text = ref.read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expect = FIXTURE_COUNTS[n]
    if len(lines) != expect:
        raise ValueError(f"fixture {name} has {len(lines)} graphs, expected {expect}")
    return lines


def enumerate_connected(n: int, corpus_dir: str | Path | None = None) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected graphs on n vertices.

    n <= 6 is enumerated internally; n in {7, 8} is served from fixture files
    (packaged by default, overridable via corpus_dir).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 6:
        for s in _connected_classes_g6(n):
            yield parse_graph6(s)
    elif n in FIXTURE_COUNTS:
        for s in _fixture_lines(n, corpus_dir):
            yield parse_graph6(s)
    else:
        raise ValueError(f"enumeration supports n <= 8, got {n}")


def is_complete_multipartite(g: Graph) -> tuple[int, ...] | None:
    """Part sizes (nonincreasing) if non-adjacency is an equivalence relation, else None."""
    comp = complement(g)
    parts = []
    for block in connected_components(comp):
        k = len(block)
        for v in block:
            if comp.adj[v].bit_count() != k - 1:
                return None  # complement component is not a clique
        parts.append(k)
    return tuple(sorted(parts, reverse=True))

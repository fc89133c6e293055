"""Bitset-backed simple graphs: graph6 I/O, generators, canonical forms, enumeration.

Vertices are 0..n-1 and every neighborhood is a single int bitmask, so graphs
up to 64 vertices fit in one machine word per row. All operations return new
Graph values; instances are immutable and safe to share across workers.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_VERTICES = 64

# Brute-force canonicalization is guarded to this size.
CANONICAL_MAX_VERTICES = 8

# Connected isomorphism classes served from committed fixture files.
FIXTURE_COUNTS = {7: 853, 8: 11117}


# the set bit positions of each byte value, lowest first
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))

# the six data bits of each graph6 byte value 63 + i, most significant first
_SIX_BITS = tuple(format(i, "06b") for i in range(64))


def _bits(mask: int) -> list[int]:
    """Set bit positions of a nonnegative mask, lowest first, a byte at a time."""
    if mask < 256:
        return list(_BYTE_BITS[mask])
    out = []
    base = 0
    while mask:
        for i in _BYTE_BITS[mask & 255]:
            out.append(base + i)
        mask >>= 8
        base += 8
    return out


def _check_vertex_count(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1; `m` is its edge count."""

    __slots__ = ("n", "adj", "_graph6")

    def __init__(self, n: int, adj: Sequence[int]):
        _check_vertex_count(n)
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
        self._set(n, adj, None)

    def _set(self, n: int, adj: tuple[int, ...], graph6: str | None) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_graph6", graph6)

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...], graph6: str | None = None) -> "Graph":
        """A graph from masks its caller built symmetric, loop-free and in
        range: nothing is validated. `graph6`, if given, is the text
        to_graph6 would return for it."""
        g = object.__new__(cls)
        g._set(n, adj, graph6)
        return g

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # __setattr__ blocks the default path. A pickle passes only between a
        # corpus process and its workers, so it is rebuilt unchecked and keeps
        # the graph6 text parse_graph6 kept
        return (Graph._unchecked, (self.n, self.adj, self._graph6))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)  # before the list is sized
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

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


def graphs_from_stack(adjacency: np.ndarray, graph6: Sequence[str] | None = None) -> list[Graph]:
    """The graphs of a (B, n, n) boolean adjacency stack, each symmetric with
    a zero diagonal, built from their packed rows with nothing validated;
    graph6[i], if given, is the text to_graph6 would return for graph i."""
    b, n, _ = adjacency.shape
    rows = np.zeros((b, n, 8), dtype=np.uint8)  # each row's mask, as 8 little-endian bytes
    rows[:, :, :(n + 7) // 8] = np.packbits(adjacency, axis=2, bitorder="little")
    rows = rows.view("<u8")[:, :, 0].tolist()
    texts = graph6 if graph6 is not None else [None] * b
    return [Graph._unchecked(n, tuple(row), text) for row, text in zip(rows, texts)]


# ---------------------------------------------------------------------------
# graph6 codec (McKay format, no ">>graph6<<" header)
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Parse a single graph6 record into a Graph.

    Bits are the upper triangle in column order x(0,1), x(0,2), x(1,2),
    x(0,3), ... packed MSB-first into 6-bit chunks offset by 63.
    """
    s = text.strip(" \t\r\n")  # ASCII blanks only: any other byte is refused below
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

    if body and (min(body) < 63 or max(body) > 126):
        bad = next(b for b in body if not 63 <= b <= 126)
        raise ValueError(f"invalid graph6 data byte {bad!r}")
    bits = "".join([_SIX_BITS[b - 63] for b in body])
    if "1" in bits[nbits:]:
        raise ValueError("nonzero padding bits in graph6 record")

    # the bits read backwards put x(row, col) at bit col(col-1)/2 + row, so
    # each column is the next `col` bits, with bit i for row i
    rest = int(bits[nbits - 1::-1], 2) if nbits else 0
    adj = [0] * n
    for col in range(1, n):
        column = rest & ((1 << col) - 1)
        rest >>= col
        adj[col] = column  # the rows below col; later columns add the ones above
        bit = 1 << col
        for row in _bits(column):
            adj[row] |= bit
    # each bit set both ways, row != col < n: valid by construction. The
    # checks above leave one text per graph in the short size form, the one
    # to_graph6 writes, so that text is kept; a "~" size is re-encoded.
    return Graph._unchecked(n, tuple(adj), None if data[0] == 126 else s)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string (inverse of parse_graph6)."""
    if g._graph6 is not None:
        return g._graph6
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

def _decimal(token: str) -> int:
    """int(token) for an ASCII decimal numeral only: int() alone also takes
    signs, underscores and non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not an ASCII decimal numeral: {token!r}")
    return int(token)


def _records(text: str) -> list[str]:
    """The lines of `text` that hold something, split at line feeds only and
    stripped of spaces, tabs and carriage returns (so CRLF line ends pass).
    Any other line break or blank stays in its line, for the parser of that
    line to refuse."""
    return [s for line in text.split("\n") if (s := line.strip(" \t\r"))]


def parse_edge_list(text: str) -> Graph:
    """Parse the 0-indexed edge-list format; duplicate edge lines collapse.

    The vertex count and both endpoints of each edge line are ASCII decimal
    numerals, and the endpoints are apart by ASCII blanks."""
    lines = _records(text)
    if not lines:
        raise ValueError("empty edge list")
    try:
        n = _decimal(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}") from exc
    _check_vertex_count(n)
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(_decimal, re.split("[ \t]+", ln))
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop line {ln!r}")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def _complement_masks(adj: Sequence[int]) -> list[int]:
    """Neighbor masks of the complement of the graph with neighbor masks `adj`."""
    full = (1 << len(adj)) - 1
    return [full & ~mask & ~(1 << v) for v, mask in enumerate(adj)]


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_masks(g.adj))


def _component_masks(adj: Sequence[int]) -> list[int]:
    """Vertex masks of the connected components of the graph with neighbor
    masks `adj`, ordered by least member."""
    seen = 0
    comps = []
    for start in range(len(adj)):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(comp)
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Partition vertices into maximal connected blocks, ordered by least member."""
    return [_bits(comp) for comp in _component_masks(g.adj)]


def is_connected(g: Graph) -> bool:
    """Whether g is connected. Public on purpose: no code in the package
    calls it (the kernels refuse a disconnected graph themselves), but the
    tests and the benchmark's input check do."""
    return len(connected_components(g)) == 1


def _quotient_masks(adj: Sequence[int], groups: Sequence[Sequence[int]]) -> list[int]:
    """Neighbor masks of the graph whose vertex i is the vertex set groups[i]
    of the graph with neighbor masks `adj`: i and j are adjacent when a member
    of one is adjacent to a member of the other. A vertex in no group is
    dropped, and a group that holds an edge gets a self-loop."""
    label = [0] * len(adj)  # the bit of each vertex's group
    for i, group in enumerate(groups):
        for v in group:
            label[v] = 1 << i
    # a union of neighbors is translated a byte at a time, by its 8 vertices' labels
    chunks = [label[base:base + 8] for base in range(0, len(adj), 8)]
    out = []
    for group in groups:
        union = 0
        for v in group:
            union |= adj[v]
        mask = 0
        for chunk in chunks:
            for i in _BYTE_BITS[union & 255]:
                mask |= chunk[i]
            union >>= 8
        out.append(mask)
    return out


def relabel(g: Graph, order: Sequence[int]) -> Graph:
    """Relabel so that new vertex i is old vertex order[i]."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    return Graph._unchecked(g.n, tuple(_quotient_masks(g.adj, [[v] for v in order])))


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
    # refuse before the generator sizes a list by the parameter
    for p in params:
        if p > MAX_VERTICES:
            raise ValueError(f"family {name!r} parameter {p} is above the vertex count "
                             f"range 1..{MAX_VERTICES}")
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

    try:
        rec(0, 0)
    finally:
        del rec  # as in coloring._search: rec holds itself through its closure
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
def _connected_classes_g6(n: int) -> tuple[str, ...]:
    """Canonical graph6 strings of all connected isomorphism classes on n
    vertices (n <= 8), sorted. Every connected graph has a vertex whose
    removal leaves it connected, so each one is a connected (n-1)-class
    extended by a new vertex with a nonempty neighborhood."""
    if n == 1:
        return ("@",)
    seen: set[str] = set()
    for g in _decode_fixture(n - 1, _connected_classes_g6(n - 1)):
        base = list(g.adj) + [0]
        for nb in range(1, 1 << (n - 1)):
            adj = base.copy()
            adj[n - 1] = nb
            for u in _bits(nb):
                adj[u] |= 1 << (n - 1)
            seen.add(canonical_form(Graph(n, adj)).decode("ascii"))
    return tuple(sorted(seen))


def _fixture_lines(n: int, corpus_dir: str | Path | None) -> list[str]:
    name = f"connected{n}.g6"
    if corpus_dir is not None:
        path = Path(corpus_dir) / name
        if not path.is_file():
            raise FileNotFoundError(f"missing fixture file {path}")
    else:
        path = resources.files("distlap.data").joinpath(name)
        if not path.is_file():
            raise FileNotFoundError(f"missing packaged fixture {name}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from exc
    lines = _records(text)
    expect = FIXTURE_COUNTS[n]
    if len(lines) != expect:
        raise ValueError(f"fixture {name} has {len(lines)} graphs, expected {expect}")
    return lines


def _decode_fixture(n: int, lines: Sequence[str]) -> list[Graph]:
    """The graphs of the graph6 lines of an n-vertex corpus, in order.

    Every line is checked at once, as one array of character codes: its
    length, the size byte n + 63, the data range 63..126 and zero padding
    bits. If every line passes, each is a record parse_graph6 reads as an
    n-vertex graph in the short size form, so the lines are unpacked together
    into one adjacency stack and keep their text. Otherwise every line, in
    order, goes through parse_graph6 and an order check, so the first faulty
    line is refused as it would be alone, and a "~" size form is read.
    """
    nbits = n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    if all(len(s) == width for s in lines):
        codes = np.frombuffer("".join(lines).encode("utf-32-le", "surrogatepass"),
                              dtype=np.uint32).reshape(-1, width)
        # the six data bits of each byte, most significant first (garbage out of range)
        data = (codes[:, 1:] - 63).astype(np.uint8)
        bits = np.unpackbits(data[:, :, None], axis=2)[:, :, 2:].reshape(len(lines), -1).view(bool)
        if ((codes[:, 0] == n + 63).all() and ((codes[:, 1:] >= 63) & (codes[:, 1:] <= 126)).all()
                and not bits[:, nbits:].any()):
            # bit k of a record is x(row, col), in column order x(0,1), x(0,2), x(1,2), ...
            row = [r for c in range(1, n) for r in range(c)]
            col = [c for c in range(1, n) for _ in range(c)]
            adjacency = np.zeros((len(lines), n, n), dtype=bool)
            adjacency[:, row, col] = adjacency[:, col, row] = bits[:, :nbits]
            return graphs_from_stack(adjacency, lines)
    out = []
    for s in lines:
        g = parse_graph6(s)
        if g.n != n:
            raise ValueError(f"fixture connected{n}.g6 holds {s!r}, a graph on {g.n} vertices")
        out.append(g)
    return out


def enumerate_connected(n: int, corpus_dir: str | Path | None = None) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected graphs on n vertices.

    n <= 6 is enumerated internally; n in {7, 8} is served from fixture files
    (packaged by default, overridable via corpus_dir, which any other n
    rejects); both kinds of graph6 lines are decoded by _decode_fixture. A
    fixture line that is not a graph6 record, or of another order, raises
    ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if corpus_dir is not None and n not in FIXTURE_COUNTS:
        orders = " and ".join(map(str, FIXTURE_COUNTS))
        raise ValueError(f"a corpus directory applies to n = {orders} only, got n={n}")
    if n <= 6:
        lines = _connected_classes_g6(n)
    elif n in FIXTURE_COUNTS:
        lines = _fixture_lines(n, corpus_dir)
    else:
        raise ValueError(f"enumeration supports n <= 8, got {n}")
    yield from _decode_fixture(n, lines)


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

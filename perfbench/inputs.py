"""Seeded input generation for the benchmark workloads.

The benchmark owns its graph6 codec so that the inputs it hands to distlap,
and the oracle that checks distlap's answers, do not depend on distlap code.
Every generator is a pure function of (seed, index): the same seed always
yields the same graph6 list.
"""

from __future__ import annotations

import math
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# graph6 codec over adjacency bitmask lists (n <= 62)
# ---------------------------------------------------------------------------

def encode_g6(n: int, adj: list[int]) -> str:
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(adj[row] >> col & 1)
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i:i + 6]:
            v = v << 1 | b
        out.append(chr(v + 63))
    return "".join(out)


def decode_g6(s: str) -> tuple[int, list[int]]:
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"unsupported graph6 record {s!r}")
    bits = []
    for ch in s[1:]:
        v = ord(ch) - 63
        bits += [v >> k & 1 for k in range(5, -1, -1)]
    adj = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            i += 1
    return n, adj


def relabel(n: int, adj: list[int], perm: list[int]) -> list[int]:
    """Adjacency of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


# ---------------------------------------------------------------------------
# random connected graphs
# ---------------------------------------------------------------------------

def random_connected(rng: random.Random, n: int, density: float) -> list[int]:
    """A random spanning tree plus independent extra edges, so that the expected
    edge count is density * n(n-1)/2 and the graph is always connected."""
    adj = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    pairs = n * (n - 1) // 2
    extra = max(0.0, (density * pairs - (n - 1)) / (pairs - (n - 1)))
    for v in range(1, n):
        for u in range(v):
            if not adj[v] >> u & 1 and rng.random() < extra:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return adj


def stratified_graph(seed: int, index: int, n_range: tuple[int, int],
                     density_range: tuple[float, float]) -> str:
    """Graph number `index` of a seeded stream.

    Vertex counts cycle through n_range and densities follow a golden-ratio
    sequence over density_range, so every prefix of the stream covers both
    ranges evenly; only the edges themselves are random. That keeps the mix
    the same from seed to seed, whatever prefix a timed run gets through.
    """
    rng = random.Random(f"{seed}:{index}")
    n_lo, n_hi = n_range
    n = n_lo + index % (n_hi - n_lo + 1)
    offset = random.Random(seed).random()
    lo, hi = density_range
    density = lo + (hi - lo) * ((offset + index * GOLDEN) % 1.0)
    return encode_g6(n, random_connected(rng, n, density))


def graph_stream(seed: int, n_range, density_range, count: int) -> list[str]:
    return [stratified_graph(seed, i, n_range, density_range) for i in range(count)]


def relabeled_corpus(seed: int, lines: list[str]) -> list[str]:
    """The fixture corpus in a seeded order, each graph under a seeded vertex
    relabeling: the same isomorphism classes, different labeled inputs."""
    rng = random.Random(seed)
    out = []
    for s in lines:
        n, adj = decode_g6(s)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(encode_g6(n, relabel(n, adj, perm)))
    rng.shuffle(out)
    return out

"""Grassmann graphs and induced graphs of non-degenerate linear codes.

Vertices are k-dimensional subspaces of F_q^n in the deterministic
enumeration order; two vertices are joined when their intersection has
dimension k - 1.  Adjacency is stored as one bitmask row per vertex so
that neighbourhood intersections during search are word-parallel; the
one backtracking search over those rows, used for embeddings and for
automorphisms alike, lives here too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .errors import Falsified, ParameterError
from .fqlinalg import (
    Subspace,
    check_space,
    enumerate_subspaces,
    gaussian_binomial,
    rank_bits,
    rref_bits,
    rref_modq,
)

KIND_FULL = "FullGrassmann"
KIND_NONDEGENERATE = "NonDegenerate"

# the largest adjacency-row table a graph may take, nv**2 / 8 bytes: the
# full G(9,2) (43,435 vertices) takes 0.22 GiB, G(10,2) would take 3.5 GiB
# and G(11,2) 57 GiB
MAX_ROW_BYTES = 1 << 30


def is_nondegenerate(x: Subspace) -> bool:
    """True when no coordinate hyperplane contains x.

    Equivalent to the canonical basis matrix having no all-zero column.
    """
    if x.k == 0:
        return x.n == 0
    return all(any(row[j] for row in x.rows) for j in range(x.n))


def is_adjacent(x: Subspace, y: Subspace) -> bool:
    """True when dim(x ∩ y) = k - 1, i.e. dim(x + y) = k + 1."""
    if (x.n, x.q, x.k) != (y.n, y.q, y.k):
        raise ValueError("adjacency needs equal ambient space and dimension")
    k = x.k
    if x.q == 2:
        return rank_bits(x.bits + y.bits) == k + 1
    rank = len(rref_modq(x.rows + y.rows, x.n, x.q))
    return rank == k + 1


@dataclass(frozen=True)
class CodeGraph:
    """Immutable vertex-indexed graph with bitmask adjacency rows."""

    n: int
    k: int
    q: int
    kind: str
    vertices: tuple[Subspace, ...]
    adj: tuple[int, ...]
    edge_count: int

    @property
    def nv(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict[Subspace, int]:
        return {x: i for i, x in enumerate(self.vertices)}

    @property
    def complete_regime(self) -> bool:
        """k = 1 or k = n - 1, where the ambient graph is complete."""
        return self.k in (1, self.n - 1)

    def is_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def neighbors(self, i: int) -> list[int]:
        m = self.adj[i]
        out = []
        while m:
            b = m & -m
            out.append(b.bit_length() - 1)
            m ^= b
        return out


def build_graph(n: int, k: int, q: int, kind: str = KIND_FULL) -> CodeGraph:
    """Build the Grassmann graph or its non-degenerate induced subgraph.

    Every call form (default, positional or keyword kind) shares one
    cache entry, so a graph is built once per process.
    """
    return _build_graph(n, k, q, kind)


@lru_cache(maxsize=None)
def _build_graph(n: int, k: int, q: int, kind: str) -> CodeGraph:
    check_space(n, q)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if kind not in (KIND_FULL, KIND_NONDEGENERATE):
        raise ParameterError(f"unknown graph kind {kind!r}")
    if kind == KIND_FULL:
        # refused before the subspaces are listed
        _check_row_bytes(n, k, q, gaussian_binomial(n, k, q))
    vertices = enumerate_subspaces(n, k, q)
    if kind == KIND_NONDEGENERATE:
        vertices = tuple(x for x in vertices if is_nondegenerate(x))
        _check_row_bytes(n, k, q, len(vertices))
    # Proof obligation: distinct k-spaces are adjacent iff they share a
    # (k-1)-space (then it is their intersection).  So a vertex's row is
    # the union of the stars of its hyperplanes with the vertex itself
    # removed, and the induced subgraph takes the stars of its own vertices.
    coeffs = enumerate_subspaces(k, k - 1, q)
    h = len(coeffs)
    star_id: dict[tuple, int] = {}
    # star ids of vertex i's hyperplanes at [i*h, (i+1)*h), one flat list
    # of small ints so the temporaries stay small
    flat = [
        star_id.setdefault(key, len(star_id))
        for x in vertices
        for key in _hyperplane_keys(x, coeffs)
    ]
    stars = [0] * len(star_id)
    for t, s in enumerate(flat):
        stars[s] |= 1 << (t // h)
    adj = []
    for i in range(len(vertices)):
        row = 0
        for s in flat[i * h : (i + 1) * h]:
            row |= stars[s]
        adj.append(row & ~(1 << i))
    if kind == KIND_FULL:
        # every k-space has q * [k,1]_q * [n-k,1]_q neighbours
        want = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
        bad = next((i for i, row in enumerate(adj) if row.bit_count() != want), None)
        if bad is not None:
            raise Falsified(
                f"vertex {bad} of G({n},{k})_{q} has degree {adj[bad].bit_count()}, not {want}"
            )
    edges = sum(row.bit_count() for row in adj) // 2
    return CodeGraph(n, k, q, kind, vertices, tuple(adj), edges)


def _check_row_bytes(n: int, k: int, q: int, nv: int) -> None:
    """ParameterError when nv bitmask rows of nv bits exceed MAX_ROW_BYTES."""
    need = nv * nv // 8
    if need > MAX_ROW_BYTES:
        raise ParameterError(
            f"the adjacency rows of a {nv}-vertex graph at ({n},{k},{q}) would take "
            f"{need / (1 << 30):.1f} GiB, past the {MAX_ROW_BYTES >> 30} GiB cap"
        )


def _hyperplane_keys(x: Subspace, coeffs: tuple[Subspace, ...]) -> list[tuple]:
    """Canonical rows of every (k-1)-subspace of x, one per (k-1)-subspace
    C of F_q^k: the span of the rows of C·X."""
    if x.q == 2:
        keys = []
        for c in coeffs:
            rows = []
            for m in c.bits:
                r = 0
                for j, b in enumerate(x.bits):
                    if (m >> j) & 1:
                        r ^= b
                rows.append(r)
            keys.append(rref_bits(rows))
        return keys
    cols = tuple(zip(*x.rows))
    return [
        rref_modq(
            [tuple(sum(a * b for a, b in zip(crow, col)) % x.q for col in cols) for crow in c.rows],
            x.n,
            x.q,
        )
        for c in coeffs
    ]


def greedy_order(adj: tuple[int, ...]) -> list[int]:
    """Vertices ordered so each has the most already-placed neighbours;
    ties go to the smaller id.

    A lazy max-heap keyed by (-placed neighbours, id), the pair packed
    into one int as -count << shift | id so entries stay small.  Placing
    a vertex pushes a fresh entry for each unplaced neighbour.  Counts
    only grow, so a vertex's newest entry has the smallest key of its
    entries and pops before them; the popped entry of an unplaced
    vertex therefore carries its current count, and the entries left
    behind are skipped on pop because their vertex is placed.
    """
    nv = len(adj)
    shift = nv.bit_length()
    low = (1 << shift) - 1
    count = [0] * nv
    heap = list(range(nv))
    placed: list[int] = []
    placed_mask = 0
    while heap:
        key = heapq.heappop(heap)
        v = key & low
        if (placed_mask >> v) & 1:
            continue
        placed.append(v)
        placed_mask |= 1 << v
        m = adj[v] & ~placed_mask
        while m:
            b = m & -m
            w = b.bit_length() - 1
            count[w] += 1
            heapq.heappush(heap, -count[w] << shift | w)
            m ^= b
    return placed


def backtrack(
    src_adj: tuple[int, ...],
    tgt_adj: tuple[int, ...],
    order: list[int],
    domains: list[int],
    induced: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of injective adjacency-preserving maps.

    Source vertices are assigned in ``order``; ``domains[v]`` is the
    bitmask of targets v may start with.  Assigning v to c intersects
    c's neighbourhood into the domains of v's later neighbours (forward
    checking), and a branch dies as soon as one of them has no unused
    candidate left.  With ``induced`` the later non-neighbours of v are
    also confined to the non-neighbours of c, so non-adjacency is
    preserved too; without it non-adjacent pairs impose nothing, which
    is the not-necessarily-induced-subgraph reading.  Maps are yielded
    as tuples indexed by source vertex, in lexicographic order of the
    images along ``order``.  The search reads no clock: a caller that
    wants fewer maps stops consuming the generator.
    """
    nv = len(src_adj)
    # later[d] / apart[d] are built when a frame first reaches depth d,
    # so a search that dies early never pays for the deeper levels
    later: list = [None] * nv
    apart: list = [None] * nv
    later[0], apart[0] = _depth_lists(src_adj, order, 0, induced)
    cand = list(domains)
    mapping = [0] * nv
    # frames: [remaining candidates, used-mask before this level, undo list]
    frames: list[list] = [[cand[order[0]], 0, None]]
    while frames:
        fr = frames[-1]
        if fr[2] is not None:
            for w, old in fr[2]:
                cand[w] = old
            fr[2] = None
        m = fr[0]
        if not m:
            frames.pop()
            continue
        b = m & -m
        fr[0] = m ^ b
        d = len(frames) - 1
        c = b.bit_length() - 1
        free = ~(fr[1] | b)
        undo: list[tuple[int, int]] = []
        fr[2] = undo
        ok = True
        adj_c = tgt_adj[c]
        for w in later[d]:
            old = cand[w]
            new = old & adj_c
            if new != old:
                cand[w] = new
                undo.append((w, old))
                if not new & free:
                    ok = False
                    break
        if ok and apart[d]:
            adj_c = ~adj_c
            for w in apart[d]:
                old = cand[w]
                new = old & adj_c
                if new != old:
                    cand[w] = new
                    undo.append((w, old))
                    if not new & free:
                        ok = False
                        break
        if not ok:
            continue
        mapping[order[d]] = c
        d += 1
        if d == nv:
            yield tuple(mapping)
            continue
        if later[d] is None:
            later[d], apart[d] = _depth_lists(src_adj, order, d, induced)
        frames.append([cand[order[d]] & free, ~free, None])


def _depth_lists(
    src_adj: tuple[int, ...], order: list[int], d: int, induced: bool
) -> tuple[list[int], list[int]]:
    """The vertices after order[d] in order that are its neighbours, and
    (only when induced) those that are not."""
    row = src_adj[order[d]]
    rest = order[d + 1 :]
    near = [w for w in rest if (row >> w) & 1]
    return near, [w for w in rest if not (row >> w) & 1] if induced else []


def connected_components(g: CodeGraph) -> list[set[int]]:
    """Partition of vertex ids into maximal connected sets."""
    seen = 0
    comps = []
    for start in range(g.nv):
        if (seen >> start) & 1:
            continue
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= g.adj[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~comp
        seen |= comp
        ids = set()
        while comp:
            b = comp & -comp
            ids.add(b.bit_length() - 1)
            comp ^= b
        comps.append(ids)
    return comps


def graph_export_text(g: CodeGraph) -> str:
    """Header line then one hex-encoded adjacency row per vertex."""
    width = (g.nv + 3) // 4 if g.nv else 1
    lines = [f"{g.n} {g.k} {g.q} {g.kind} {g.nv} {g.edge_count}"]
    lines.extend(f"{row:0{width}x}" for row in g.adj)
    return "\n".join(lines)


def vertex_sidecar_text(g: CodeGraph) -> str:
    """Vertex id -> subspace text blocks, blank-line separated."""
    blocks = [f"# {i}\n{x.to_text()}" for i, x in enumerate(g.vertices)]
    return "\n\n".join(blocks)


def degenerate_union_count(n: int, k: int, q: int) -> int:
    """|∪_i G_k(C_i)| by direct filtering, for count cross-checks."""
    return sum(1 for x in enumerate_subspaces(n, k, q) if not is_nondegenerate(x))


def iter_edges(g: CodeGraph) -> Iterable[tuple[int, int]]:
    for i in range(g.nv):
        m = g.adj[i] & ~((1 << (i + 1)) - 1)
        while m:
            b = m & -m
            yield (i, b.bit_length() - 1)
            m ^= b

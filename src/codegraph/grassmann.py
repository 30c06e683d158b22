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
from dataclasses import dataclass, field
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


def build_graph(n: int, k: int, q: int, kind: str = KIND_FULL) -> CodeGraph:
    """Build the Grassmann graph or its non-degenerate induced subgraph.

    Every call form (default, positional or keyword kind) shares one
    cache entry, so a graph is built once per process.
    """
    return _build_graph(n, k, q, kind)


def check_grassmann(n: int, k: int, q: int) -> None:
    """ParameterError unless ``check_space(n, q)`` passes and 1 <= k <= n - 1."""
    check_space(n, q)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")


@lru_cache(maxsize=None)
def _build_graph(n: int, k: int, q: int, kind: str) -> CodeGraph:
    check_grassmann(n, k, q)
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


def mask_ids(mask: int) -> list[int]:
    """The ids of the set bits of ``mask``, in increasing order."""
    ids = []
    while mask:
        b = mask & -mask
        ids.append(b.bit_length() - 1)
        mask ^= b
    return ids


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


@dataclass(frozen=True, eq=False)
class SearchPlan:
    """The source side of a search: the graph, the order its vertices are
    assigned in, and whether non-adjacency must be kept too.

    ``later[d]`` / ``apart[d]`` hold the vertices after ``order[d]`` in the
    order that are its neighbours and (only when induced) its
    non-neighbours, each as ``p - d - 1`` for its position p in the
    order: its index in a search's snapshot at depth d + 1.  Every depth
    is built when the plan is made, and every search with the plan reads
    the same lists; with ``order=None`` the search picks as it goes
    (``_fail_first``), both are empty, and ``induced`` is refused.  The
    plan belongs to its caller: its lists live exactly as long as the
    caller keeps it.  Its fields cannot be reassigned, so lists built
    for one order or mode never serve another.
    """

    src_adj: tuple[int, ...]
    order: tuple[int, ...] | None
    induced: bool = False
    later: tuple = field(init=False, repr=False)
    apart: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.order is None and self.induced:
            raise ValueError("a dynamic plan (order=None) searches plain maps only")
        # a copy, so the caller's list cannot change under the built lists
        order = None if self.order is None else tuple(self.order)
        # 0 .. nv-1 once, so every list shares these int objects
        offsets = tuple(range(len(order or ())))
        later, apart = [], []
        for d, v in enumerate(order or ()):
            row = self.src_adj[v]
            rest = list(zip(offsets, order[d + 1 :]))
            later.append(tuple(j for j, w in rest if (row >> w) & 1))
            apart.append(tuple(j for j, w in rest if not (row >> w) & 1) if self.induced else ())
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "later", tuple(later))
        object.__setattr__(self, "apart", tuple(apart))


def backtrack(plan: SearchPlan, tgt_adj: tuple[int, ...], domains: list[int]) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of injective adjacency-preserving maps
    from ``plan``'s source graph into ``tgt_adj``.

    Source vertices are assigned in ``plan.order``; ``domains[v]`` is the
    bitmask of targets v may start with.  Assigning v to c intersects
    c's neighbourhood into the domains of v's later neighbours (forward
    checking, Haralick & Elliott 1980), and a branch dies as soon as one
    of them has no unused candidate left.  With ``plan.induced`` the later
    non-neighbours of v are also confined to the non-neighbours of c, so
    non-adjacency is preserved too; without it non-adjacent pairs impose
    nothing, which is the not-necessarily-induced-subgraph reading.  Maps
    are yielded as tuples indexed by source vertex, in lexicographic
    order of the images along the order.  The search reads no clock: a
    caller that wants fewer maps stops consuming the generator.

    Each depth d keeps its own snapshot of the domains of order[d:], the
    vertices not yet assigned, with position p at index p - d.  A
    child's list is its parent's without its first entry, and only the
    domains an assignment narrows are replaced in it, so the child shares
    every other int with its parent.  Backing up needs no undo.  At full
    depth a search holds about nv**2 / 2 list slots, plus one int per
    narrowing along the path.  The last vertex has no later vertex, so
    its candidates are yielded straight from its domain.

    A dynamic plan (``order=None``, plain only) runs ``_fail_first``: the
    same maps, in its own order.  An empty source graph has one map, the
    empty one, in either plan.
    """
    if not plan.src_adj:
        yield ()
        return
    if plan.order is None:
        yield from _fail_first(plan, tgt_adj, domains)
        return
    order = plan.order
    later, apart = plan.later, plan.apart
    last = len(order) - 1
    top = order[last]
    mapping = [0] * len(order)
    if not last:
        m = domains[top]
        while m:
            b = m & -m
            m ^= b
            yield (b.bit_length() - 1,)
        return
    # frames indexed by depth: the domains in force, the targets already
    # used above, and the candidates still to try
    doms: list = [None] * last
    used = [0] * last
    rem = [0] * last
    doms[0] = [domains[v] for v in order]
    rem[0] = doms[0][0]
    d = 0
    while d >= 0:
        m = rem[d]
        if not m:
            d -= 1
            continue
        b = m & -m
        rem[d] = m ^ b
        c = b.bit_length() - 1
        u = used[d] | b
        free = ~u
        child = doms[d][1:]
        adj_c = tgt_adj[c]
        for j in later[d]:
            y = child[j]
            x = y & adj_c
            if not x & free:
                break
            if x != y:
                child[j] = x
        else:
            adj_c = ~adj_c
            for j in apart[d]:
                y = child[j]
                x = y & adj_c
                if x != y:
                    if not x & free:
                        break
                    child[j] = x
            else:
                mapping[order[d]] = c
                d += 1
                if d < last:
                    doms[d] = child
                    used[d] = u
                    rem[d] = child[0] & free
                    continue
                m = child[0] & free
                while m:
                    b = m & -m
                    m ^= b
                    mapping[top] = b.bit_length() - 1
                    yield tuple(mapping)
                d -= 1


def _fail_first(plan: SearchPlan, tgt_adj: tuple[int, ...], domains: list[int]) -> Iterator[tuple[int, ...]]:
    """``backtrack`` in a dynamic order (fail-first, Haralick & Elliott
    1980): each node takes the first unplaced vertex, by id, with at most
    one free candidate, else the one with the fewest, ties to the smaller
    id.  The search works on one vertex-indexed list of the domains and
    one list of the unplaced vertices, in id order.  Assigning v to c
    makes one pass over the unplaced vertices: it narrows the neighbours
    of v, read off ``src_adj``, and counts free candidates up to the
    pick; a narrowed or counted domain with none kills the branch.

    A pick with one free candidate is a forced step: it is assigned, and
    its pass narrows the working lists in place.  The last unplaced
    vertex yields each of its free candidates.  Any other pick, with two
    or more, is a choice point: it goes on the stack with its untried
    candidates, the targets used above it, and the working lists, which
    it now owns.  Each of its branches starts from a fresh copy of them.
    A dead end or an exhausted last vertex returns to the top choice
    point with an untried candidate.  So the search holds one snapshot
    per open choice point, not one per node: a forced path of any length
    costs no copies.
    """
    src_adj = plan.src_adj
    mapping = [0] * len(src_adj)
    many = max(dom.bit_length() for dom in domains) + 1  # above any count
    stack: list = []
    # the working lists, the used targets and the pick, which has
    # ``least`` free candidates (none: a dead end); the root takes the
    # fewest, as a vertex with none ends it either way
    best = min(range(len(src_adj)), key=lambda w: (domains[w].bit_count(), w))
    work, u, rest, least = list(domains), 0, list(range(len(src_adj))), domains[best].bit_count()
    while True:
        if least == 1 and len(rest) > 1:
            # a forced step: its pass below narrows the lists in place
            v = best
            rest.remove(v)
            b = work[v] & ~u
        else:
            if least:
                rest.remove(best)
                m = work[best] & ~u
                if rest:
                    # a choice point takes the working lists
                    stack.append([m, work, u, best, rest])
                else:
                    while m:
                        b = m & -m
                        m ^= b
                        mapping[best] = b.bit_length() - 1
                        yield tuple(mapping)
            # back to the top choice point with an untried candidate
            while stack and not stack[-1][0]:
                stack.pop()
            if not stack:
                return
            top = stack[-1]
            m, work, u, v, rest = top
            b = m & -m
            top[0] = m ^ b
            work, rest = work[:], rest[:]
        mapping[v] = c = b.bit_length() - 1
        u |= b
        free, row = ~u, src_adj[v]
        adj_c = tgt_adj[c]
        best, least = -1, many
        for w in rest:
            x = work[w]
            if (row >> w) & 1:
                x &= adj_c
                work[w] = x
            elif least < 2:
                continue
            if least > 1:
                k = (x & free).bit_count()
                if k < least:
                    best, least = w, k
                    if not k:
                        break
            elif not x & free:
                least = 0
                break


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
        comps.append(set(mask_ids(comp)))
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

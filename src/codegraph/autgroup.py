"""Automorphisms of Grassmann and code graphs.

An automorphism is an F_2 witness: an invertible binary matrix acting on
subspaces, optionally followed by the orthocomplement with respect to
the standard dot product (legal only when the ambient dimension is twice
the subspace dimension).  Only the group orders are q-generic: the full
graph's generated group is PGL(n, q), doubled by the orthocomplement
when n = 2k, and the code graph's is the monomial matrices modulo
scalars, which over F_2 are exactly the coordinate permutations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .errors import ParameterError
from .fqlinalg import Subspace, Vector, from_bits, nullspace, rank_bits, rref_bits
from .grassmann import CodeGraph, SearchPlan, backtrack, check_grassmann, greedy_order


@dataclass(frozen=True)
class GraphAutomorphism:
    """Invertible n x n matrix over F_2 held as packed columns (bit i of
    cols[j] is entry (i, j)), plus an orthocomplement flag."""

    n: int
    cols: tuple[int, ...]
    dual: bool = False

    def __post_init__(self) -> None:
        n = self.n
        if len(self.cols) != n or any(not 0 <= c < 1 << n for c in self.cols):
            raise ParameterError(f"need {n} columns of {n} bits")
        if rank_bits(self.cols) != n:
            raise ParameterError("matrix is singular")

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The matrix's row tuples, read off the columns."""
        return tuple(tuple((c >> i) & 1 for c in self.cols) for i in range(self.n))

    @property
    def is_identity(self) -> bool:
        return self == identity_automorphism(self.n)


def matrix_inline_text(cols: tuple[int, ...], dual: bool) -> str:
    """One-line form of a matrix, given by its packed columns, and dual
    flag, as in witness dumps: the rows, comma-separated."""
    rows = ("".join(str((c >> i) & 1) for c in cols) for i in range(len(cols)))
    return ",".join(rows) + (" dual=1" if dual else " dual=0")


def identity_automorphism(n: int) -> GraphAutomorphism:
    return GraphAutomorphism(n, tuple(1 << i for i in range(n)))


def orthocomplement(x: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product: all v with
    r · v = 0 for every basis row r of x."""
    return nullspace(x.rows, x.n, x.q)


def apply(a: GraphAutomorphism, x: Subspace) -> Subspace:
    """Image subspace; matrix action first, then orthocomplement if dual.

    Each packed basis row r goes to the sum of the columns at the set
    bits of r."""
    if a.n != x.n or x.q != 2:
        raise ParameterError("automorphism and subspace live in different spaces")
    if a.dual and x.n != 2 * x.k:
        raise ParameterError("dual flag needs ambient dimension twice the subspace dimension")
    pushed = []
    for r in x.bits:
        w = 0
        for j, c in enumerate(a.cols):
            if (r >> j) & 1:
                w ^= c
        pushed.append(w)
    image = from_bits(rref_bits(pushed), x.n)
    return orthocomplement(image) if a.dual else image


# ---------------------------------------------------------------------------
# group orders


def order_gl(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def gl2_cols_stream(n: int) -> Iterator[tuple[int, ...]]:
    """All invertible matrices over F_2 as column-bitmask tuples, in a
    fixed depth-first order (columns chosen in increasing packed value)."""
    cols: list[int] = []
    span = {0}

    def rec() -> Iterator[tuple[int, ...]]:
        if len(cols) == n:
            yield tuple(cols)
            return
        for c in range(1, 1 << n):
            if c not in span:
                added = {s ^ c for s in span}
                span.update(added)
                cols.append(c)
                yield from rec()
                cols.pop()
                span.difference_update(added)
        return

    yield from rec()


@dataclass(frozen=True)
class GroupHandle:
    """A generated automorphism group, by description and order."""

    description: str
    order: int


def grassmann_aut_group(n: int, k: int, q: int) -> GroupHandle:
    """The generated automorphism group of the full Grassmann graph:
    invertible matrices modulo scalars, doubled by the orthocomplement
    exactly when n = 2k."""
    check_grassmann(n, k, q)
    with_dual = n == 2 * k
    kind = "PGL with orthocomplement" if with_dual else "PGL"
    return GroupHandle(f"{kind}({n},{q})", order_gl(n, q) // (q - 1) * (2 if with_dual else 1))


def code_graph_aut_group(n: int, k: int, q: int) -> GroupHandle:
    """Monomial matrices modulo scalars acting on the code graph."""
    check_grassmann(n, k, q)
    return GroupHandle(f"monomial({n},{q})", factorial(n) * (q - 1) ** (n - 1))


def vertex_permutation(a: GraphAutomorphism, g: CodeGraph) -> tuple[int, ...]:
    """Action of a on g's vertex ids; raises KeyError if a does not
    stabilize the vertex set."""
    return tuple(g.index[apply(a, x)] for x in g.vertices)


# ---------------------------------------------------------------------------
# direct graph-automorphism count: orbit-stabilizer on the search's own
# maps, with no matrices


def graph_automorphisms(g: CodeGraph) -> tuple[int, list[list[tuple[int, ...]]]]:
    """Count all adjacency-preserving vertex bijections of g, through a
    stabilizer chain (Sims 1970); return the count and the chain's
    transversals.

    Base points b_1, b_2, ... are taken in ``greedy_order``.  G_0 is the
    whole group and G_i fixes b_1..b_i.  Each vertex starts from the
    vertices of its own degree; at level i, b_1..b_{i-1} are pinned to
    themselves and every other domain is narrowed by induced adjacency
    to each pinned point.  The orbit of b_i under G_{i-1} grows from
    {b_i}: a candidate target already reached by closing the orbit
    under the automorphisms found at this level is skipped, and every
    other candidate is decided by one first-solution ``backtrack`` with
    b_i pinned to it.  Each orbit point keeps one transversal element,
    an automorphism of G_{i-1} sending b_i there.  The count is the
    product of the orbit sizes.  Each level with a non-trivial orbit
    gives one transversal, listed in base order.

    Proof obligations:

    - A map yielded with ``induced=True`` is a bijection of the vertex
      set that preserves adjacency and non-adjacency, so it is an
      automorphism; with the pinned points' domains {b_j} it lies in
      G_{i-1}.
    - Narrowing drops only targets no automorphism of G_{i-1} can use:
      one that fixes b maps b's neighbours to b's neighbours and its
      other vertices to its other non-neighbours.  Degree classes are
      kept by every automorphism.  So the search with b_i pinned to t
      finds a map exactly when t lies in the orbit.
    - Closing under found automorphisms of G_{i-1} adds only orbit
      points (their transversal element is a product of automorphisms
      of G_{i-1}), and every candidate left unreached is searched, so
      each orbit is exact.
    - |G_{i-1}| = |orbit_i| * |G_i|, a level whose narrowed domain is
      already {b_i} has orbit {b_i}, and the stabilizer of every vertex
      is trivial, so the count is exact.
    - Every element factors uniquely as u_1 u_2 ... with u_i in the
      i-th transversal, so the products of transversal elements are the
      group, each element once.
    """
    adj = g.adj
    nv = len(adj)
    by_degree: dict[int, int] = defaultdict(int)
    for c, row in enumerate(adj):
        by_degree[row.bit_count()] |= 1 << c
    domains = [by_degree[row.bit_count()] for row in adj]
    order = greedy_order(adj)
    # every orbit search reads this one plan's lists
    plan = SearchPlan(adj, order, induced=True)
    identity = tuple(range(nv))
    count = 1
    transversals: list[list[tuple[int, ...]]] = []
    for b in order:
        if domains[b] != 1 << b:
            orbit = _orbit(plan, domains, b, identity)
            count *= len(orbit)
            transversals.append(orbit)
        domains[b] = 1 << b
        near = adj[b]
        far = ~near & ~(1 << b)
        for w in range(nv):
            if w != b:
                domains[w] &= near if (near >> w) & 1 else far
    return count, transversals


def _orbit(
    plan: SearchPlan, domains: list[int], b: int, identity: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """One transversal element per point of b's orbit under the
    automorphisms that respect ``domains``: each maps b to its point."""
    reached = {b: identity}
    found: list[tuple[int, ...]] = []
    m = domains[b] & ~(1 << b)
    while m:
        t = (m & -m).bit_length() - 1
        m &= m - 1
        if t in reached:
            continue
        pinned = list(domains)
        pinned[b] = 1 << t
        s = next(backtrack(plan, plan.src_adj, pinned), None)
        if s is None:
            continue
        found.append(s)
        # close the orbit under every automorphism found at this level
        queue = list(reached)
        while queue:
            p = queue.pop()
            u = reached[p]
            for h in found:
                if h[p] not in reached:
                    reached[h[p]] = tuple(h[x] for x in u)
                    queue.append(h[p])
    return list(reached.values())

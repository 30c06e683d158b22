"""Automorphisms of Grassmann and code graphs.

An automorphism is an invertible matrix acting on subspaces, optionally
composed with the orthocomplement with respect to the standard dot
product (legal only when the ambient dimension is twice the subspace
dimension).  Code-graph automorphisms are generated by monomial
matrices, which over F_2 are exactly the coordinate permutations.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterator

from .errors import Falsified, ParameterError
from .fqlinalg import (
    Subspace,
    Vector,
    check_space,
    full_space,
    nullspace,
    rref,
    rref_modq,
)
from .grassmann import CodeGraph, backtrack, greedy_order

Matrix = tuple[Vector, ...]  # row tuples


def _mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % q for col in bt) for row in a
    )


def _mat_vec(a: Matrix, v: Vector, q: int) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) % q for row in a)


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_inv(a: Matrix, q: int) -> Matrix:
    """Inverse read off the reduced form of [A | I]; raises on singular
    input, which is exactly when the left block does not reduce to I."""
    n = len(a)
    ident = _identity(n)
    red = rref_modq([tuple(row) + e for row, e in zip(a, ident)], 2 * n, q)
    if tuple(row[:n] for row in red) != ident:
        raise ParameterError("matrix is singular")
    return tuple(row[n:] for row in red)


def _mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _scalar_normalize(a: Matrix, q: int) -> Matrix:
    """Scale so the first nonzero entry (row-major) is 1; identifies
    scalar multiples, which act identically on subspaces."""
    if q == 2:
        return a
    lead = next(c for row in a for c in row if c)
    inv = pow(lead, q - 2, q)
    return tuple(tuple((c * inv) % q for c in row) for row in a)


@dataclass(frozen=True)
class GraphAutomorphism:
    """Invertible matrix plus an orthocomplement flag.

    Equality quotients out scalars, which is the semantically correct
    identification since scalar multiples act identically.
    """

    n: int
    q: int
    rows: Matrix
    dual: bool = False

    def __post_init__(self) -> None:
        _mat_inv(self.rows, self.q)  # raises if singular
        object.__setattr__(self, "rows", _scalar_normalize(self.rows, self.q))

    @property
    def is_identity(self) -> bool:
        return not self.dual and self.rows == _identity(self.n)

    def to_text(self) -> str:
        lines = ["".join(str(c) for c in row) for row in self.rows]
        lines.append("1" if self.dual else "0")
        return "\n".join(lines)

    def inline_text(self) -> str:
        return matrix_inline_text(self.rows, self.dual)


def matrix_inline_text(rows: Matrix, dual: bool) -> str:
    """One-line form of a matrix and dual flag, as in witness dumps."""
    return ",".join("".join(str(c) for c in row) for row in rows) + (
        " dual=1" if dual else " dual=0"
    )


def automorphism_from_text(text: str, q: int = 2) -> GraphAutomorphism:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    rows = tuple(tuple(int(ch) for ch in ln) for ln in lines[:-1])
    return GraphAutomorphism(len(rows), q, rows, dual=lines[-1] == "1")


def identity_automorphism(n: int, q: int = 2) -> GraphAutomorphism:
    return GraphAutomorphism(n, q, _identity(n))


def orthocomplement(x: Subspace, form: Matrix | None = None) -> Subspace:
    """Orthogonal complement under the standard dot product (or the
    given symmetric form): all v with x_row · form · v = 0."""
    if x.k == 0:
        return full_space(x.n, x.q)
    rows = x.rows if form is None else tuple(_mat_vec(form, r, x.q) for r in x.rows)
    # v is in the complement iff (rows) v = 0 since the form is symmetric
    return nullspace(rows, x.n, x.q)


def apply(a: GraphAutomorphism, x: Subspace) -> Subspace:
    """Image subspace; matrix action first, then orthocomplement if dual."""
    if a.n != x.n or a.q != x.q:
        raise ParameterError("automorphism and subspace live in different spaces")
    if a.dual and x.n != 2 * x.k:
        raise ParameterError("dual flag needs ambient dimension twice the subspace dimension")
    image = rref([_mat_vec(a.rows, v, x.q) for v in x.rows], x.n, x.q)
    return orthocomplement(image) if a.dual else image


def compose(a: GraphAutomorphism, b: GraphAutomorphism) -> GraphAutomorphism:
    """The automorphism acting as a after b.

    Dual flags xor; when the inner map carries the flag, the outer
    matrix conjugates through inverse-transpose, because the complement
    of M X is the inverse-transpose of M applied to the complement of X.
    """
    if (a.n, a.q) != (b.n, b.q):
        raise ParameterError("composing automorphisms of different spaces")
    ma = _mat_transpose(_mat_inv(a.rows, a.q)) if b.dual else a.rows
    return GraphAutomorphism(a.n, a.q, _mat_mul(ma, b.rows, a.q), dual=a.dual ^ b.dual)


def inverse(a: GraphAutomorphism) -> GraphAutomorphism:
    if a.dual:
        return GraphAutomorphism(a.n, a.q, _mat_transpose(a.rows), dual=True)
    return GraphAutomorphism(a.n, a.q, _mat_inv(a.rows, a.q), dual=False)


# ---------------------------------------------------------------------------
# group enumeration


def order_gl(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def order_pgl(n: int, q: int) -> int:
    return order_gl(n, q) // (q - 1)


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


def cols_bits_to_rows(cols: tuple[int, ...], n: int) -> Matrix:
    """Row tuples of the matrix whose columns are the given bitmasks."""
    return tuple(tuple((cols[j] >> i) & 1 for j in range(n)) for i in range(n))


def matrices_pgl_stream(n: int, q: int) -> Iterator[Matrix]:
    """Invertible matrices modulo scalars, streamed in a fixed order."""
    if q == 2:
        for cols in gl2_cols_stream(n):
            yield cols_bits_to_rows(cols, n)
        return
    nonzero = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    monic = [v for v in nonzero if v[next(i for i, c in enumerate(v) if c)] == 1]

    def rec(rows: list[Vector]) -> Iterator[Matrix]:
        if len(rows) == n:
            yield tuple(rows)
            return
        pool = monic if not rows else nonzero
        span = set(rref(rows, n, q).vectors())
        for v in pool:
            if v not in span:
                yield from rec(rows + [v])

    yield from rec([])


@dataclass(frozen=True)
class GroupHandle:
    """Order plus deterministic element iteration."""

    description: str
    n: int
    q: int
    order: int
    _factory: Callable[[], Iterator[GraphAutomorphism]]

    def __iter__(self) -> Iterator[GraphAutomorphism]:
        return self._factory()


def grassmann_aut_group(n: int, k: int, q: int) -> GroupHandle:
    """The generated automorphism group of the full Grassmann graph:
    invertible matrices modulo scalars, doubled by the orthocomplement
    exactly when n = 2k."""
    check_space(n, q)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    with_dual = n == 2 * k
    order = order_pgl(n, q) * (2 if with_dual else 1)

    def factory() -> Iterator[GraphAutomorphism]:
        for rows in matrices_pgl_stream(n, q):
            yield GraphAutomorphism(n, q, rows, dual=False)
        if with_dual:
            for rows in matrices_pgl_stream(n, q):
                yield GraphAutomorphism(n, q, rows, dual=True)

    kind = "PGL with orthocomplement" if with_dual else "PGL"
    return GroupHandle(f"{kind}({n},{q})", n, q, order, factory)


def code_graph_aut_group(n: int, k: int, q: int) -> GroupHandle:
    """Monomial matrices modulo scalars acting on the code graph."""
    check_space(n, q)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    order = factorial(n) * (q - 1) ** (n - 1)

    def factory() -> Iterator[GraphAutomorphism]:
        units = tuple(range(1, q))
        for perm in itertools.permutations(range(n)):
            # diagonal normalized so the first coordinate scale is 1
            for diag in itertools.product(units, repeat=n - 1):
                scales = (1,) + diag
                rows = tuple(
                    tuple(scales[c] if r == perm[c] else 0 for c in range(n))
                    for r in range(n)
                )
                yield GraphAutomorphism(n, q, rows, dual=False)

    return GroupHandle(f"monomial({n},{q})", n, q, order, factory)


def vertex_permutation(a: GraphAutomorphism, g: CodeGraph) -> tuple[int, ...]:
    """Action of a on g's vertex ids; raises KeyError if a does not
    stabilize the vertex set."""
    return tuple(g.index[apply(a, x)] for x in g.vertices)


# ---------------------------------------------------------------------------
# direct graph-automorphism count: orbit-stabilizer on the search's own
# maps, with no matrices


def graph_automorphisms(g: CodeGraph, collect: bool = False) -> tuple[int, list[tuple[int, ...]]]:
    """Count (and optionally collect) all adjacency-preserving vertex
    bijections of g, through a stabilizer chain (Sims 1970).

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
    product of the orbit sizes; ``collect`` returns every product of
    transversal elements, one per group element, in no fixed order.

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
      i-th transversal, so the collected maps are distinct; that is
      checked at run time and a shortfall raises Falsified.
    """
    adj = g.adj
    nv = len(adj)
    by_degree: dict[int, int] = defaultdict(int)
    for c, row in enumerate(adj):
        by_degree[row.bit_count()] |= 1 << c
    domains = [by_degree[row.bit_count()] for row in adj]
    order = greedy_order(adj)
    identity = tuple(range(nv))
    count = 1
    transversals: list[list[tuple[int, ...]]] = []
    for b in order:
        if domains[b] != 1 << b:
            orbit = _orbit(adj, order, domains, b, identity)
            count *= len(orbit)
            transversals.append(orbit)
        domains[b] = 1 << b
        near = adj[b]
        far = ~near & ~(1 << b)
        for w in range(nv):
            if w != b:
                domains[w] &= near if (near >> w) & 1 else far
    perms: list[tuple[int, ...]] = []
    if collect:
        perms = [identity]
        for level in transversals:
            perms = [tuple(p[x] for x in u) for p in perms for u in level]
        if len(set(perms)) != count:
            raise Falsified(
                f"{len(set(perms))} distinct products of transversal elements, not {count}"
            )
    return count, perms


def _orbit(
    adj: tuple[int, ...], order: list[int], domains: list[int], b: int, identity: tuple[int, ...]
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
        s = next(backtrack(adj, adj, order, pinned, induced=True), None)
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

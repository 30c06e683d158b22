"""Maximal clique enumeration and the star/top taxonomy.

A maximal clique of a Grassmann graph is either a star (all k-spaces
over a fixed (k-1)-space) or a top (all k-spaces inside a fixed
(k+1)-space).  In the non-degenerate code graph the intersections of
those families with the vertex set keep the names only while they stay
maximal cliques; the q = 2 criterion below predicts when that happens
without enumerating anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import AbstractSet, Optional

from .errors import ParameterError
from . import fqlinalg
from .fqlinalg import Subspace, enumerate_subspaces, intersect, rref, subspace_sum
from .grassmann import KIND_NONDEGENERATE, CodeGraph, build_graph, is_nondegenerate, mask_ids

# the largest graph whose maximal cliques are enumerated
MAX_VERTICES = 2000


def star(x: Subspace, restrict: bool = False) -> set[Subspace]:
    """All (k+1)-dimensional supersets of x, optionally non-degenerate only."""
    if x.k >= x.n:
        raise ValueError("star of the full space is empty")
    out = set()
    for v in fqlinalg.full_space(x.n, x.q).nonzero_vectors():
        if not x.contains_vector(v):
            y = rref(x.rows + (v,), x.n, x.q)
            if not restrict or is_nondegenerate(y):
                out.add(y)
    return out


def top(y: Subspace, restrict: bool = False) -> set[Subspace]:
    """All (k-1)-dimensional subspaces of y, optionally non-degenerate only."""
    if y.k == 0:
        raise ValueError("top of the zero space is empty")
    out = set()
    for pattern in enumerate_subspaces(y.k, y.k - 1, y.q):
        vecs = []
        for coeffs in pattern.rows:
            acc = [0] * y.n
            for c, row in zip(coeffs, y.rows):
                if c:
                    acc = [(a + c * r) % y.q for a, r in zip(acc, row)]
            vecs.append(tuple(acc))
        sub = rref(vecs, y.n, y.q)
        if not restrict or is_nondegenerate(sub):
            out.add(sub)
    return out


def star_criterion(x: Subspace) -> bool:
    """Predict whether the non-degenerate part of the star over x is a
    maximal clique of the code graph, without enumerating cliques.

    For q >= 3 this always holds; for q = 2 it holds exactly when the
    number of coordinate hyperplanes containing x (the all-zero columns
    of its basis) is at most n - k - 1, where k = x.k + 1 is the
    dimension of the star's members.
    """
    if x.q >= 3:
        return True
    zero_cols = x.n - reduce(or_, x.bits, 0).bit_count()
    return zero_cols <= x.n - x.k - 2


@dataclass(frozen=True)
class CliqueClass:
    """A maximal clique together with its taxonomy verdict."""

    vertices: frozenset[int]
    star_center: Optional[Subspace]
    top_roof: Optional[Subspace]
    maximal_in_code_graph: bool
    is_maximal_star: bool

    @property
    def verdict(self) -> str:
        if self.star_center is not None and self.top_roof is not None:
            # a star family that is also a top family; of the full
            # graphs only G(2,1)_q has one: its points are the star
            # over 0 and the top F_q^2
            return "star+top"
        if self.star_center is not None:
            return "star"
        if self.top_roof is not None:
            return "top"
        return "neither"

    @property
    def anchor(self) -> Optional[Subspace]:
        """The star centre, else the top roof, else None."""
        return self.star_center if self.star_center is not None else self.top_roof

    @property
    def size(self) -> int:
        return len(self.vertices)


def maximal_clique_masks(adj: tuple[int, ...]) -> list[int]:
    """All maximal cliques as vertex bitmasks (Bron-Kerbosch with pivot)."""
    nv = len(adj)
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        # pivot: most neighbours in p, x scanned first.  One of x adjacent to all of p
        # ends the call (any clique below extends by it); one branch, the fewest, ends the scan
        best, pivot, full = -1, -1, p.bit_count() - 1
        for m in (x, p):
            while m and best < full:
                b = m & -m
                u = b.bit_length() - 1
                c = (p & adj[u]).bit_count()
                if c > best:
                    if c > full:
                        return
                    best, pivot = c, u
                m ^= b
        ext = p & ~adj[pivot]
        while ext:
            b = ext & -ext
            v = b.bit_length() - 1
            bk(r | b, p & adj[v], x & adj[v])
            p ^= b
            x |= b
            ext ^= b

    bk(0, (1 << nv) - 1, 0)
    return out


def classify_clique(g: CodeGraph, vids: frozenset[int]) -> CliqueClass:
    """Taxonomy verdict for a maximal clique of g, read from its first edge.

    The first two members x and y (in id order) are adjacent, so
    ``meet`` = x ∩ y is a (k-1)-space and ``join`` = x + y a
    (k+1)-space.  The clique is a star exactly when every other member
    contains ``meet``, and a top exactly when ``join`` contains every
    other member; a one-member clique is neither.  This records a star
    (top) exactly when the clique equals the whole family of g's
    vertices through a (k-1)-space (inside a (k+1)-space):
    - a star family through C has C ⊆ x ∩ y, and the dimensions are
      equal, so C = meet; likewise a top's roof R equals join;
    - two distinct k-spaces through one (k-1)-space, or inside one
      (k+1)-space, meet in a (k-1)-space, so a family's members are
      pairwise adjacent in G(n,k)_q and in every induced subgraph.  Its
      vertices in g form a clique that contains vids, and because vids
      is maximal, that clique is vids.

    ValueError unless vids is a maximal clique of g.
    ``maximal_in_code_graph`` is tested, not assumed: on a code graph it
    is that same check, and on a full graph the non-degenerate members
    of vids must form a maximal clique of the code graph.
    """
    if not _is_maximal_clique(g, vids):
        raise ValueError(f"not a maximal clique of the graph: {sorted(vids)}")
    members = [g.vertices[v] for v in sorted(vids)]
    star_center = top_roof = None
    if len(members) > 1:
        x, y, rest = members[0], members[1], members[2:]
        meet, join = intersect(x, y), subspace_sum(x, y)
        if all(m.contains(meet) for m in rest):
            star_center = meet
        if all(join.contains(m) for m in rest):
            top_roof = join

    maximal_in_code = True
    if g.kind != KIND_NONDEGENERATE:
        code = build_graph(g.n, g.k, g.q, KIND_NONDEGENERATE)
        cset = {code.index[x] for x in members if is_nondegenerate(x)}
        maximal_in_code = bool(cset) and _is_maximal_clique(code, cset)

    is_max_star = star_center is not None and is_nondegenerate(star_center)
    return CliqueClass(
        vertices=frozenset(vids),
        star_center=star_center,
        top_roof=top_roof,
        maximal_in_code_graph=maximal_in_code,
        is_maximal_star=is_max_star,
    )


def _is_maximal_clique(g: CodeGraph, vids: AbstractSet[int]) -> bool:
    """True when vids is a clique of g that no vertex extends: the closed
    neighbourhoods of its members meet in vids alone."""
    mask, common = 0, (1 << g.nv) - 1
    for v in vids:
        mask |= 1 << v
        common &= g.adj[v] | 1 << v
    return common == mask


def check_clique_vertices(nv: int) -> None:
    """ParameterError when a graph of nv vertices is past MAX_VERTICES."""
    if nv > MAX_VERTICES:
        raise ParameterError(f"clique enumeration needs at most {MAX_VERTICES} vertices, got {nv}")


def enumerate_maximal_cliques(g: CodeGraph) -> list[CliqueClass]:
    """Every maximal clique of g exactly once, classified and in a
    deterministic order (sorted vertex tuples)."""
    check_clique_vertices(g.nv)
    masks = maximal_clique_masks(g.adj)
    masks.sort(key=lambda m: tuple(mask_ids(m)))
    return [classify_clique(g, frozenset(mask_ids(m))) for m in masks]


def clique_report_rows(cliques: list[CliqueClass]) -> list[str]:
    rows = []
    for c in cliques:
        anchor_text = c.anchor.inline_text() if c.anchor is not None else "-"
        rows.append(
            f"{c.verdict} size={c.size} anchor={anchor_text} "
            f"maximal_in_code_graph={int(c.maximal_in_code_graph)} "
            f"is_maximal_star={int(c.is_maximal_star)}"
        )
    return rows

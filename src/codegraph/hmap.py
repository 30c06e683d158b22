"""The distinguished frame and the exceptional collapse map for q = 2, k = 2.

The frame fixes the line Q spanned by the all-ones vector and the
hyperplane H spanned by the lines whose support misses exactly one of
the first n - 1 coordinates.  The non-degenerate two-dimensional codes
then split into the classes A (contain Q), B (inside H) and C (the
rest).  The collapse map fixes A and B pointwise and replaces every
member of C by the span of the complement-support twins of its two
lines outside H; that image is always degenerate, which is what makes
the map non-extendable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import Falsified, ParameterError
from .fqlinalg import Subspace, check_space, enumerate_subspaces, intersect, rref, subspace_sum
from .grassmann import (
    KIND_NONDEGENERATE,
    CodeGraph,
    build_graph,
    is_adjacent,
    is_nondegenerate,
    iter_edges,
)


def p_point(support: Iterable[int], n: int) -> Subspace:
    """The line spanned by the indicator vector of a proper, non-empty
    subset of {1, ..., n} (1-based indices)."""
    s = frozenset(support)
    if not s or s == frozenset(range(1, n + 1)):
        raise ParameterError("support must be a proper non-empty subset")
    if not all(1 <= i <= n for i in s):
        raise ParameterError(f"support {sorted(s)} out of range 1..{n}")
    vec = tuple(1 if i + 1 in s else 0 for i in range(n))
    return Subspace(n, 2, (vec,))


def p_copoint(support: Iterable[int], n: int) -> Subspace:
    """The complement-support twin of p_point(support, n)."""
    s = frozenset(support)
    return p_point(frozenset(range(1, n + 1)) - s, n)


def line_support(p: Subspace) -> frozenset[int]:
    """1-based support of a 1-dimensional subspace over F_2."""
    if p.q != 2 or p.k != 1:
        raise ValueError("expected a line over F_2")
    return frozenset(i + 1 for i in range(p.n) if p.bits[0] >> i & 1)


@dataclass(frozen=True)
class SpecialFrame:
    """The all-ones line Q and the hyperplane H it avoids."""

    n: int
    Q: Subspace
    H: Subspace


@lru_cache(maxsize=None)
def special_frame(n: int) -> SpecialFrame:
    check_space(n, 2)
    if n < 2:
        raise ParameterError("frame needs ambient dimension at least 2")
    q_line = rref([(1,) * n], n, 2)
    h_rows = [p_copoint({i}, n).rows[0] for i in range(1, n)]
    hyper = rref(h_rows, n, 2)
    if hyper.k != n - 1 or hyper.contains(q_line):
        raise Falsified("frame construction: Q must avoid the hyperplane H")
    return SpecialFrame(n, q_line, hyper)


@dataclass(frozen=True)
class AbcPartition:
    """Disjoint vertex-id classes of the code graph at (n, 2, 2)."""

    A: frozenset[int]
    B: frozenset[int]
    C: frozenset[int]


def abc_partition(g: CodeGraph) -> AbcPartition:
    if g.kind != KIND_NONDEGENERATE or g.k != 2 or g.q != 2:
        raise ParameterError("partition is defined on the non-degenerate graph at k=2, q=2")
    frame = special_frame(g.n)
    a, b, c = set(), set(), set()
    for i, x in enumerate(g.vertices):
        if x.contains(frame.Q):
            a.add(i)
        elif frame.H.contains(x):
            b.add(i)
        else:
            c.add(i)
    return AbcPartition(frozenset(a), frozenset(b), frozenset(c))


def in_c_class(x: Subspace) -> bool:
    """Membership in the third partition class, decided two ways (see
    ``_c_decomposition``)."""
    return _c_decomposition(x) is not None


def _c_decomposition(x: Subspace) -> tuple[frozenset[int], frozenset[int], frozenset[int]] | None:
    """(T, I, J) for a C-class code, None for any other code.

    The set-theoretic reading (does not contain Q, not inside H) and the
    structural reading (exactly one of the three lines inside H, the two
    outside having covering supports with non-empty intersection) must
    agree; disagreement would mean the canonical representation is
    broken, so it raises instead of guessing.
    """
    if x.k != 2 or x.q != 2:
        raise ParameterError("class membership is defined for 2-dimensional binary codes")
    frame = special_frame(x.n)
    settheoretic = (
        is_nondegenerate(x)
        and not x.contains(frame.Q)
        and not frame.H.contains(x)
    )
    structural = _structural_c_decomposition(x, frame)
    if settheoretic != (structural is not None):
        raise Falsified(
            f"class-C membership disagreement on {x.inline_text()}: "
            f"set-theoretic={settheoretic}, structural={structural is not None}"
        )
    return structural


def _structural_c_decomposition(
    x: Subspace, frame: SpecialFrame
) -> tuple[frozenset[int], frozenset[int], frozenset[int]] | None:
    """(T, I, J) for the three-line decomposition, or None if x is not
    in the C class.  T is the support of the unique line inside H, I and
    J the supports of the two lines outside."""
    if not is_nondegenerate(x):
        return None
    lines = x.lines()
    inside = [p for p in lines if frame.H.contains(p)]
    outside = [p for p in lines if not frame.H.contains(p)]
    if len(inside) != 1 or len(outside) != 2:
        return None
    sup_i = line_support(outside[0])
    sup_j = line_support(outside[1])
    full = frozenset(range(1, x.n + 1))
    if sup_i == full or sup_j == full:
        return None  # an outside line is the all-ones line, so x contains Q
    if sup_i | sup_j != full or not (sup_i & sup_j):
        return None
    t = line_support(inside[0])
    if t != full - (sup_i & sup_j):
        return None
    return (t, sup_i, sup_j)


def complement_code(x: Subspace) -> Subspace:
    """The degenerate companion of a C-class code.

    With the two lines outside H supported on I and J, the companion is
    the span of their complement-support twins; it lies inside H, misses
    the non-degenerate graph, and meets x exactly in their common line.
    """
    if not in_c_class(x):
        raise ParameterError(f"{x.inline_text()} is not in the C class")
    return h_map(x)


def h_map(x: Subspace) -> Subspace:
    """Identity on A and B, companion on C; rejects degenerate input."""
    if x.k != 2 or x.q != 2:
        raise ParameterError("the map is defined on 2-dimensional binary codes")
    if not is_nondegenerate(x):
        raise ParameterError(f"{x.inline_text()} is degenerate")
    decomposition = _c_decomposition(x)
    if decomposition is None:
        return x
    _, sup_i, sup_j = decomposition
    comp = subspace_sum(p_copoint(sup_i, x.n), p_copoint(sup_j, x.n))
    # postconditions from the construction
    if not special_frame(x.n).H.contains(comp):
        raise Falsified("companion escaped the hyperplane")
    if is_nondegenerate(comp):
        raise Falsified("companion is unexpectedly non-degenerate")
    if intersect(x, comp) != p_copoint(sup_i & sup_j, x.n):
        raise Falsified("companion meets x in the wrong line")
    return comp


def projective_morphism(p: Subspace) -> Subspace:
    """The point map inducing the collapse: fixes every line inside H
    (and Q), sends every other line to its complement-support twin."""
    if p.k != 1 or p.q != 2:
        raise ParameterError("expected a line over F_2")
    frame = special_frame(p.n)
    if p == frame.Q or frame.H.contains(p):
        return p
    return p_copoint(line_support(p), p.n)


def verify_h(n: int) -> dict:
    """Run the five certified assertions about the collapse map at size n.

    Returns a machine-readable report; every assertion carries a witness
    when it is existential.  A failed assertion falsifies the build, not
    the underlying mathematics, and is reported rather than raised.
    """
    if n < 4:
        raise ParameterError("the collapse map needs ambient dimension at least 4")
    g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
    part = abc_partition(g)
    images = [h_map(x) for x in g.vertices]
    assertions = []

    def record(name: str, passed: bool, witness=None) -> None:
        assertions.append({"name": name, "passed": passed, "witness": witness})

    def pair(ij: tuple[int, int] | None) -> dict | None:
        return None if ij is None else {"x": g.vertices[ij[0]].inline_text(), "y": g.vertices[ij[1]].inline_text()}

    record("injective", len(set(images)) == g.nv)
    bad_edge = next(((i, j) for i, j in iter_edges(g) if not is_adjacent(images[i], images[j])), None)
    record("adjacency_preserved_forward", bad_edge is None, pair(bad_edge))
    strict = next(
        ((i, j) for i, j in combinations(range(g.nv), 2) if not g.is_edge(i, j) and is_adjacent(images[i], images[j])),
        None,
    )
    record("one_direction_only", strict is not None, pair(strict))
    bad_c = next((v for v in sorted(part.C) if is_nondegenerate(images[v])), None)
    record("c_images_degenerate", bad_c is None, None if bad_c is None else g.vertices[bad_c].inline_text())
    record("point_map_morphism_noninjective", *_check_morphism(n))

    return {
        "n": n,
        "vertices": g.nv,
        "class_sizes": {"A": len(part.A), "B": len(part.B), "C": len(part.C)},
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
    }


def _check_morphism(n: int) -> tuple[bool, dict | None]:
    """Line-to-line property plus a non-injectivity witness."""
    point_images = {
        p: projective_morphism(p) for p in enumerate_subspaces(n, 1, 2)
    }
    for w in enumerate_subspaces(n, 2, 2):
        image_rows = []
        for p in w.lines():
            image_rows.extend(point_images[p].rows)
        if rref(image_rows, n, 2).k > 2:
            return False, {"line": w.inline_text(), "reason": "image spans no line"}
    collision = None
    for p, img in point_images.items():
        if p != img and point_images[img] == img:
            collision = {
                "collapsed": p.inline_text(),
                "fixed_twin": img.inline_text(),
                "common_image": img.inline_text(),
            }
            break
    return collision is not None, collision

"""Exhaustive classification of code-graph embeddings.

An embedding is an injective map from the vertices of the
non-degenerate code graph at (n, 2, 2) into the full Grassmannian of
planes that preserves adjacency in one direction, i.e. an isomorphism
onto a not-necessarily-induced subgraph.  The engine enumerates every
embedding by pruned backtracking, normalizes each one so that it fixes
the distinguished frame, runs the invariant chain that pins the map
down, and classifies it as the restriction of a graph automorphism or
as an automorphism composed with the exceptional collapse map.  A run
that finds anything else produces an explicit counterexample
certificate instead of failing silently.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations, count
from typing import Callable, Iterator, Optional, TextIO

from .errors import BudgetExceeded, Falsified, ParameterError
from .fqlinalg import (
    Subspace,
    bits_to_vec,
    enumerate_subspaces,
    from_bits,
    rank_bits,
    rref_bits,
    vec_to_bits,
)
from .grassmann import KIND_FULL, KIND_NONDEGENERATE, backtrack, build_graph, greedy_order
from .hmap import abc_partition, h_map, special_frame
from .autgroup import (
    GraphAutomorphism,
    apply,
    cols_bits_to_rows,
    gl2_cols_stream,
    orthocomplement,
)

LEMMA_KEYS = (
    "normalize",
    "eq1",
    "eq2",
    "eq3",
    "eq4",
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "lemma5",
    "endgame",
    "g1_pn",
)


@dataclass
class EmbeddingMap:
    """Images of code-graph vertex ids as full-graph vertex ids."""

    n: int
    images: tuple[int, ...]
    verdict: str = "unclassified"
    witness: Optional[GraphAutomorphism] = None


@dataclass
class PointMap:
    """The induced partial point map on lines with support >= 3."""

    assignments: dict[Subspace, Subspace]


@dataclass
class _STarget:
    subspace: Subspace
    bits: tuple[int, ...]
    full_member_mask: int
    code_members: tuple[int, ...]


class LemmaContext:
    """Precomputed frame, graph, and index data for one ambient size.

    Everything an embedding check needs is resolved to integer tables
    here once, so the per-embedding work is plain bitmask arithmetic.
    """

    def __init__(self, n: int, with_tables: bool | None = None):
        if n < 4:
            raise ParameterError("embeddings are studied for ambient dimension >= 4")
        self.n = n
        self.code = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        self.full = build_graph(n, 2, 2, KIND_FULL)
        self.frame = special_frame(n)
        self.part = abc_partition(self.code)
        self.nc = self.code.nv

        full_index_bits = self.full.index_bits
        self.full_bits: tuple[tuple[int, ...], ...] = tuple(x.bits for x in self.full.vertices)
        self.gid: tuple[int, ...] = tuple(
            full_index_bits[x.bits] for x in self.code.vertices
        )

        # lines, their ids, and the 3-line mask of every plane
        self.lines = enumerate_subspaces(n, 1, 2)
        self.nlines = len(self.lines)
        self.line_bits = tuple(p.bits[0] for p in self.lines)
        self.line_id = {b: i for i, b in enumerate(self.line_bits)}
        vmask = []
        for rows in self.full_bits:
            r1, r2 = rows
            vmask.append(
                (1 << self.line_id[r1])
                | (1 << self.line_id[r2])
                | (1 << self.line_id[r1 ^ r2])
            )
        self.vline_mask = tuple(vmask)
        self.all_lines_mask = (1 << self.nlines) - 1

        ones = (1 << n) - 1
        self.q_lid = self.line_id[ones]
        # P^i = complement of {i}; P_i = e_i
        self.p_upper = tuple(self.line_id[ones ^ (1 << (i - 1))] for i in range(1, n + 1))
        self.p_lower = tuple(self.line_id[1 << (i - 1)] for i in range(1, n + 1))
        self.pn_in_H = self.frame.H.contains(self.lines[self.p_upper[n - 1]])

        # supports and complement twins of proper lines
        self.twin = {}
        for lid, b in enumerate(self.line_bits):
            if b != ones:
                self.twin[lid] = self.line_id[ones ^ b]
        self.gprime_lids = tuple(
            lid
            for lid, b in enumerate(self.line_bits)
            if b.bit_count() >= 3
        )

        # code vertices through each line
        sc: list[list[int]] = [[] for _ in range(self.nlines)]
        for vid, x in enumerate(self.code.vertices):
            r1, r2 = x.bits
            for b in (r1, r2, r1 ^ r2):
                sc[self.line_id[b]].append(vid)
        self.sc_code = tuple(tuple(v) for v in sc)

        # the A-star and its indexing by representative support
        self.all_A_vids = tuple(sorted(self.part.A))
        self.A_vids: dict[frozenset[int], int] = {}
        qbits = ones
        for vid in self.all_A_vids:
            r1, r2 = self.code.vertices[vid].bits
            others = [v for v in (r1, r2, r1 ^ r2) if v != qbits]
            rep = next(v for v in others if not (v >> (n - 1)) & 1)
            support = frozenset(i + 1 for i in range(n) if (rep >> i) & 1)
            self.A_vids[support] = vid
        self.a_singleton = tuple(self.A_vids[frozenset({i})] for i in range(1, n))
        self.b_pair_vids = {}
        code_index_bits = self.code.index_bits
        for i, j in combinations(range(1, n), 2):
            sub = rref_bits((ones ^ (1 << (i - 1)), ones ^ (1 << (j - 1))))
            self.b_pair_vids[(i, j)] = code_index_bits[sub]

        # expected spans S_I = Q + sum of the chosen axes
        self.subsets = [
            frozenset(c)
            for size in range(1, n)
            for c in combinations(range(1, n), size)
        ]
        self.S_expected: dict[frozenset[int], _STarget] = {}
        for I in self.subsets:
            rows = [ones] + [1 << (i - 1) for i in I]
            red = rref_bits(rows)
            sub = from_bits(red, n)
            vecs = frozenset(vec_to_bits(v) for v in sub.vectors())
            member_mask = 0
            for vid, rows_b in enumerate(self.full_bits):
                if rows_b[0] in vecs and rows_b[1] in vecs:
                    member_mask |= 1 << vid
            code_members = tuple(
                vid for vid in range(self.nc) if (member_mask >> self.gid[vid]) & 1
            )
            self.S_expected[I] = _STarget(sub, red, member_mask, code_members)
        self.three_subsets = [I for I in self.subsets if len(I) == 3]

        # collapse-map images
        self.h_gid = tuple(
            full_index_bits[h_map(x).bits] for x in self.code.vertices
        )

        # orthocomplement as a vertex permutation (only when n = 2k)
        if n == 4:
            self.orth_perm: Optional[tuple[int, ...]] = tuple(
                full_index_bits[orthocomplement(x).bits] for x in self.full.vertices
            )
        else:
            self.orth_perm = None

        self._perm_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

        self.search_order = greedy_order(self.code.adj)
        self.group_order: Optional[int] = None
        self.witnesses: Optional[list[tuple[tuple[int, ...], bool]]] = None
        self.witness_perms: Optional[list[tuple[int, ...]]] = None
        self.restr_index: Optional[dict[tuple[int, ...], int]] = None
        self.exc_index: Optional[dict[tuple[int, ...], int]] = None
        self.restr_collisions = 0
        self.exc_collisions = 0
        if with_tables is None:
            with_tables = n == 4
        if with_tables:
            self._build_tables()

    # -- automorphism tables (materialized group scan, n = 4 only) ----------

    def _build_tables(self) -> None:
        if self.n != 4:
            raise ParameterError("group tables are materialized only at n = 4")
        code_ids = range(self.nc)
        restr: dict[tuple[int, ...], int] = {}
        exc: dict[tuple[int, ...], int] = {}
        witnesses: list[tuple[tuple[int, ...], bool]] = []
        perms: list[tuple[int, ...]] = []
        orth = self.orth_perm
        assert orth is not None
        for cols in gl2_cols_stream(self.n):
            perm = self.perm_of_cols(cols)
            for dual in (False, True):
                p = tuple(orth[t] for t in perm) if dual else perm
                widx = len(witnesses)
                witnesses.append((cols, dual))
                perms.append(p)
                key_r = tuple(p[self.gid[v]] for v in code_ids)
                key_e = tuple(p[self.h_gid[v]] for v in code_ids)
                if key_r in restr:
                    self.restr_collisions += 1
                else:
                    restr[key_r] = widx
                if key_e in exc:
                    self.exc_collisions += 1
                else:
                    exc[key_e] = widx
        overlap = restr.keys() & exc.keys()
        if overlap:
            raise Falsified(
                "an automorphism restriction coincides with a collapse composite; "
                "the exceptional map would be extendable"
            )
        self.group_order = len(witnesses)
        self.witnesses = witnesses
        self.witness_perms = perms
        self.restr_index = restr
        self.exc_index = exc

    def witness_automorphism(self, widx: int) -> GraphAutomorphism:
        assert self.witnesses is not None
        cols, dual = self.witnesses[widx]
        return GraphAutomorphism(self.n, 2, cols_bits_to_rows(cols, self.n), dual=dual)

    def perm_of_cols(self, cols: tuple[int, ...]) -> tuple[int, ...]:
        """Vertex permutation of the full graph induced by a linear map
        given as column bitmasks; cached."""
        cached = self._perm_cache.get(cols)
        if cached is not None:
            return cached
        out = tuple(
            self.apply_cols_to_vid(cols, vid) for vid in range(self.full.nv)
        )
        self._perm_cache[cols] = out
        return out

    def apply_cols_to_vid(self, cols: tuple[int, ...], vid: int) -> int:
        index = self.full.index_bits
        imgs = []
        for r in self.full_bits[vid]:
            w = 0
            m = r
            while m:
                b = m & -m
                w ^= cols[b.bit_length() - 1]
                m ^= b
            imgs.append(w)
        return index[rref_bits(imgs)]

    def map_images(self, cols: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
        """Apply a linear map to a tuple of vertex ids.

        At n = 4 matrices repeat heavily across embeddings, so the full
        cached permutation pays for itself; at larger sizes they mostly
        do not, and mapping only the needed ids is the cheaper route.
        """
        if self.n == 4:
            perm = self.perm_of_cols(cols)
            return tuple(perm[c] for c in images)
        return tuple(self.apply_cols_to_vid(cols, c) for c in images)


_CTX_CACHE: dict[tuple[int, bool], LemmaContext] = {}


def build_context(n: int, with_tables: bool | None = None) -> LemmaContext:
    key = (n, bool(with_tables) if with_tables is not None else n == 4)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = LemmaContext(n, with_tables)
        _CTX_CACHE[key] = ctx
    return ctx


# ---------------------------------------------------------------------------
# search


def _embeddings(
    ctx: LemmaContext, order: list[int], roots: Optional[int], deadline: Optional[float]
) -> Iterator[tuple[int, ...]]:
    """Image tuples of every embedding whose first vertex in ``order``
    lands in the bitmask ``roots`` (anywhere when None)."""
    domains = [(1 << ctx.full.nv) - 1] * ctx.nc
    if roots is not None:
        domains[order[0]] &= roots
    return backtrack(ctx.code.adj, ctx.full.adj, order, domains, deadline=deadline)


def _order_for(ctx: LemmaContext, variant: int) -> list[int]:
    if variant:
        # alternative deterministic order for completeness cross-checks
        return list(reversed(ctx.search_order))
    return ctx.search_order


def enumerate_embeddings(
    n: int,
    budget_secs: Optional[float] = None,
    ctx: Optional[LemmaContext] = None,
    first_vertices: Optional[list[int]] = None,
    order_variant: int = 0,
) -> Iterator[EmbeddingMap]:
    """Stream every embedding exactly once in deterministic order.

    Raises BudgetExceeded when the wall-clock budget trips; partial
    output is never silently truncated.
    """
    if n >= 5 and budget_secs is None:
        raise ParameterError("sizes beyond 4 need an explicit time budget")
    if ctx is None:
        ctx = build_context(n, with_tables=False)
    deadline = time.monotonic() + budget_secs if budget_secs is not None else None
    roots = None if first_vertices is None else sum(1 << c for c in set(first_vertices))
    for images in _embeddings(ctx, _order_for(ctx, order_variant), roots, deadline):
        yield EmbeddingMap(n, images)


def is_valid_embedding(ctx: LemmaContext, images: tuple[int, ...]) -> bool:
    """Naive double-loop recheck, independent of the search pruning."""
    if len(set(images)) != len(images):
        return False
    code_adj = ctx.code.adj
    full_adj = ctx.full.adj
    nc = ctx.nc
    for i in range(nc):
        row = code_adj[i]
        for j in range(i + 1, nc):
            if (row >> j) & 1 and not (full_adj[images[i]] >> images[j]) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# normalization


def _common_line(ctx: LemmaContext, vids: Iterator[int]) -> Optional[int]:
    msk = ctx.all_lines_mask
    for c in vids:
        msk &= ctx.vline_mask[c]
        if not msk:
            return None
    if msk.bit_count() != 1:
        return None
    return msk.bit_length() - 1


def _solve_cols(src: list[int], dst: list[int], n: int) -> tuple[int, ...]:
    """Column bitmasks of the matrix sending src[j] to dst[j].

    Reduce the rows (src_j | dst_j << n).  When the sources span, the
    left block lands on the identity and row t reads off the image of
    the t-th basis vector; otherwise it cannot, and Falsified is raised.
    """
    red = rref_bits(s | (d << n) for s, d in zip(src, dst))
    if len(red) != n or any((r & ((1 << n) - 1)) != (1 << t) for t, r in enumerate(red)):
        raise Falsified("frame images do not determine an invertible map")
    return tuple(r >> n for r in red)


def _normalize_ids(
    ctx: LemmaContext, images: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Return (normalized images, linear-correction columns, dual flag).

    Raises Falsified when the image of the unique maximal star is
    neither a star nor a legal top, or when the induced frame images
    fail to span (``_solve_cols`` rejects those); both would be
    counterexamples to the cited structure results rather than ordinary
    data.
    """
    a_images = [images[v] for v in ctx.all_A_vids]
    common = _common_line(ctx, iter(a_images))
    dualled = False
    f1 = images
    if common is None:
        if ctx.orth_perm is None:
            raise Falsified("image of the maximal star is not a star")
        rows: list[int] = []
        for c in a_images:
            rows.extend(ctx.full_bits[c])
        if len(rref_bits(rows)) != 3:
            raise Falsified("image of the maximal star is neither a star nor a top")
        dualled = True
        f1 = tuple(ctx.orth_perm[c] for c in images)
        common = _common_line(ctx, (f1[v] for v in ctx.all_A_vids))
        if common is None:
            raise Falsified("orthocomplemented star image is still not a star")
    g1 = [common]
    for i in range(1, ctx.n):
        lid = ctx.p_upper[i - 1]
        got = _common_line(ctx, (f1[v] for v in ctx.sc_code[lid]))
        if got is None:
            raise Falsified(f"image of the star through axis complement {i} has no unique center")
        g1.append(got)
    src = [ctx.line_bits[l] for l in g1]
    ones = (1 << ctx.n) - 1
    dst = [ones] + [ones ^ (1 << (i - 1)) for i in range(1, ctx.n)]
    cols = _solve_cols(src, dst, ctx.n)
    f2 = ctx.map_images(cols, f1)
    return f2, cols, dualled


def normalize(ctx: LemmaContext, emb: EmbeddingMap) -> tuple[EmbeddingMap, GraphAutomorphism]:
    """Compose an automorphism so the embedding fixes the frame.

    The returned pre-map g satisfies: normalized images = g applied to
    original images (orthocomplement correction first when the maximal
    star went to a top, then the linear map moving the induced frame
    back onto the standard one).
    """
    f2, cols, dualled = _normalize_ids(ctx, emb.images)
    if dualled:
        # the linear map L after the orthocomplement is the flagged matrix
        # L^-T, whose rows are the columns of L^-1
        inv_cols = _solve_cols(list(cols), [1 << t for t in range(ctx.n)], ctx.n)
        pre = GraphAutomorphism(ctx.n, 2, tuple(bits_to_vec(c, ctx.n) for c in inv_cols), dual=True)
    else:
        pre = GraphAutomorphism(ctx.n, 2, cols_bits_to_rows(cols, ctx.n), dual=False)
    return EmbeddingMap(ctx.n, f2), pre


def point_map(ctx: LemmaContext, emb: EmbeddingMap) -> PointMap:
    """Centers of the stars carrying the images of the maximal-clique
    stars; defined exactly on the lines of support >= 3."""
    assignments: dict[Subspace, Subspace] = {}
    for lid in ctx.gprime_lids:
        got = _common_line(ctx, (emb.images[v] for v in ctx.sc_code[lid]))
        if got is None:
            raise Falsified("star image without a unique center")
        assignments[ctx.lines[lid]] = ctx.lines[got]
    return PointMap(assignments)


# ---------------------------------------------------------------------------
# the invariant chain


def _member_rows(rows: tuple[int, ...], basis: tuple[int, ...]) -> bool:
    for r in rows:
        for b in basis:
            if (r >> ((b & -b).bit_length() - 1)) & 1:
                r ^= b
        if r:
            return False
    return True


def lemma_chain(ctx: LemmaContext, emb: EmbeddingMap) -> dict:
    """Run the full invariant chain on a normalized embedding.

    Failures are report content, never exceptions: the caller decides
    whether a failed check falsifies a run.
    """
    fp = emb.images
    gid = ctx.gid
    checks: dict[str, dict] = {}

    def record(name: str, passed: bool, witness=None) -> None:
        checks[name] = {"passed": bool(passed), "witness": witness}

    bad = next(
        (i for i in range(1, ctx.n) if fp[ctx.a_singleton[i - 1]] != gid[ctx.a_singleton[i - 1]]),
        None,
    )
    record("eq1", bad is None, None if bad is None else {"axis": bad})

    rows: list[int] = []
    for i in range(1, ctx.n):
        rows.extend(ctx.full_bits[fp[ctx.a_singleton[i - 1]]])
    record("eq2", rank_bits(rows) == ctx.n)

    bad = next(
        (
            (i, j)
            for (i, j), vid in ctx.b_pair_vids.items()
            if fp[vid] != gid[vid]
        ),
        None,
    )
    record("eq3", bad is None, None if bad is None else {"pair": bad})

    eq4_ok = True
    lemma1_ok = True
    lemma4_ok = True
    eq4_witness = lemma1_witness = lemma4_witness = None
    for I in ctx.subsets:
        target = ctx.S_expected[I]
        rows = []
        for i in I:
            rows.extend(ctx.full_bits[fp[ctx.A_vids[frozenset({i})]]])
        actual = rref_bits(rows)
        if actual != target.bits:
            if eq4_ok:
                eq4_ok, eq4_witness = False, {"I": sorted(I)}
        a_vid = ctx.A_vids[I]
        if not _member_rows(ctx.full_bits[fp[a_vid]], actual):
            if lemma1_ok:
                lemma1_ok, lemma1_witness = False, {"I": sorted(I)}
        for v in target.code_members:
            img = fp[v]
            inside = (
                (target.full_member_mask >> img) & 1
                if actual == target.bits
                else _member_rows(ctx.full_bits[img], actual)
            )
            if not inside:
                if lemma4_ok:
                    lemma4_ok, lemma4_witness = False, {"I": sorted(I), "vertex": v}
                break
    record("eq4", eq4_ok, eq4_witness)
    record("lemma1", lemma1_ok, lemma1_witness)
    record("lemma4", lemma4_ok, lemma4_witness)

    bad = next(
        (I for I in ctx.subsets if fp[ctx.A_vids[I]] != gid[ctx.A_vids[I]]), None
    )
    record("lemma2", bad is None, None if bad is None else {"I": sorted(bad)})

    lemma3_ok = True
    lemma3_witness = None
    for lid in ctx.gprime_lids:
        got = _common_line(ctx, (fp[v] for v in ctx.sc_code[lid]))
        if got is None:
            lemma3_ok, lemma3_witness = False, {"line": ctx.lines[lid].inline_text()}
            break
        if lid == ctx.q_lid:
            allowed = (lid,)
        else:
            allowed = (lid, ctx.twin[lid])
        if got not in allowed:
            lemma3_ok, lemma3_witness = False, {
                "line": ctx.lines[lid].inline_text(),
                "image": ctx.lines[got].inline_text(),
            }
            break
    record("lemma3", lemma3_ok, lemma3_witness)

    lemma5_ok = True
    lemma5_witness = None
    identity = fp == gid
    for I in ctx.three_subsets:
        hyp = all(fp[v] == gid[v] for v in ctx.S_expected[I].code_members)
        if hyp and not identity:
            lemma5_ok, lemma5_witness = False, {"I": sorted(I)}
            break
    record("lemma5", lemma5_ok, lemma5_witness)

    if identity:
        kind = "identity"
    elif fp == ctx.h_gid:
        kind = "h"
    else:
        kind = None
    record("endgame", kind is not None, None if kind else {"reason": "normalized map is neither identity nor the collapse"})

    g1_pn_ok = False
    g1_pn_witness = None
    pn_lid = ctx.p_upper[ctx.n - 1]
    got = _common_line(ctx, (fp[v] for v in ctx.sc_code[pn_lid]))
    if got is not None and kind is not None:
        if kind == "identity":
            expected = pn_lid
        else:
            expected = ctx.p_lower[ctx.n - 1] if ctx.n % 2 == 0 else pn_lid
        g1_pn_ok = got == expected
        if not g1_pn_ok:
            g1_pn_witness = {"image": ctx.lines[got].inline_text()}
    record("g1_pn", g1_pn_ok, g1_pn_witness)

    return {
        "checks": checks,
        "endgame_kind": kind,
        "pn_in_H": ctx.pn_in_H,
    }


# ---------------------------------------------------------------------------
# classification


def _classify_ids(
    ctx: LemmaContext,
    images: tuple[int, ...],
    normalized: Optional[tuple[tuple[int, ...], tuple[int, ...], bool]] = None,
) -> tuple[str, Optional[int], Optional[GraphAutomorphism]]:
    """(kind, table index or None, constructive witness or None)."""
    if ctx.restr_index is not None:
        widx = ctx.restr_index.get(images)
        if widx is not None:
            return "extendable", widx, None
        widx = ctx.exc_index.get(images)
        if widx is not None:
            return "exceptional", widx, None
        return "unclassified", None, None
    # constructive route: recover the only possible witness from the frame
    if normalized is None:
        try:
            normalized = _normalize_ids(ctx, images)
        except Falsified:
            return "unclassified", None, None
    fp, cols, dualled = normalized
    if fp == ctx.gid:
        base = ctx.gid
        kind = "extendable"
    elif fp == ctx.h_gid:
        base = ctx.h_gid
        kind = "exceptional"
    else:
        return "unclassified", None, None
    inv_cols = _solve_cols(list(cols), [1 << t for t in range(ctx.n)], ctx.n)
    moved = ctx.map_images(inv_cols, base)
    if dualled:
        assert ctx.orth_perm is not None
        if any(images[v] != ctx.orth_perm[moved[v]] for v in range(ctx.nc)):
            return "unclassified", None, None
    else:
        if any(images[v] != moved[v] for v in range(ctx.nc)):
            return "unclassified", None, None
    witness = GraphAutomorphism(
        ctx.n, 2, cols_bits_to_rows(inv_cols, ctx.n), dual=dualled
    )
    return kind, None, witness


def classify(ctx: LemmaContext, emb: EmbeddingMap) -> EmbeddingMap:
    """Attach the verdict and witness to an embedding."""
    kind, widx, witness = _classify_ids(ctx, emb.images)
    emb.verdict = kind
    if widx is not None:
        witness = ctx.witness_automorphism(widx)
    emb.witness = witness
    return emb


def recheck_witness(ctx: LemmaContext, emb: EmbeddingMap) -> bool:
    """Re-verify a classified embedding by full composition through the
    subspace-level action of its witness."""
    if emb.witness is None:
        return False
    base = ctx.gid if emb.verdict == "extendable" else ctx.h_gid
    index = ctx.full.index
    for v in range(ctx.nc):
        src = ctx.full.vertices[base[v]]
        if index[apply(emb.witness, src)] != emb.images[v]:
            return False
    return True


# ---------------------------------------------------------------------------
# the certified run


def _new_tallies() -> dict:
    return {k: {"pass": 0, "fail": 0} for k in LEMMA_KEYS}


def _numbered_writer(fh: TextIO) -> Callable[[str], None]:
    """Write each line to fh prefixed with its running number."""
    numbers = count()
    return lambda line: fh.write(f"{next(numbers)} {line}\n")


def _run_branches(
    ctx: LemmaContext,
    order: list[int],
    branches: list[int],
    deadline: Optional[float],
    emit_line: Optional[Callable[[str], None]],
) -> dict:
    """Classify the embeddings of the given root branches and tally them;
    ``emit_line`` receives one verdict+witness line per valid embedding."""
    tallies = _new_tallies()
    counts = {"total": 0, "extendable": 0, "exceptional": 0, "unclassified": 0}
    soundness_failures = 0
    witness_failures = 0
    route_mismatches = 0
    # Invariant-chain reports by normalized tuple.  lemma_chain reads only
    # ctx tables and emb.images, so equal tuples give equal reports.  A
    # report is kept only when its endgame matched, i.e. the tuple is
    # ctx.gid or ctx.h_gid, so at most two are held; any other tuple is a
    # would-be counterexample and gets the full chain every time.
    reports: dict[tuple[int, ...], dict] = {}
    complete = True
    try:
        for images in _embeddings(ctx, order, sum(1 << b for b in branches), deadline):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("classification stopped at its wall-clock budget")
            counts["total"] += 1
            if not is_valid_embedding(ctx, images):
                soundness_failures += 1
                continue
            norm = None
            try:
                norm = _normalize_ids(ctx, images)
                tallies["normalize"]["pass"] += 1
            except Falsified:
                tallies["normalize"]["fail"] += 1
            kind_endgame = None
            if norm is not None:
                report = reports.get(norm[0])
                if report is None:
                    report = lemma_chain(ctx, EmbeddingMap(ctx.n, norm[0]))
                    if report["endgame_kind"] is not None:
                        reports[norm[0]] = report
                kind_endgame = report["endgame_kind"]
                for name, res in report["checks"].items():
                    tallies[name]["pass" if res["passed"] else "fail"] += 1
            kind, widx, witness = _classify_ids(ctx, images, norm)
            counts[kind] += 1
            # the two routes must agree: table/constructive verdict vs endgame
            expected_kind = {
                "identity": "extendable",
                "h": "exceptional",
                None: "unclassified",
            }[kind_endgame]
            if kind != expected_kind:
                route_mismatches += 1
            if kind != "unclassified":
                if widx is not None:
                    perm = ctx.witness_perms[widx]
                    base = ctx.gid if kind == "extendable" else ctx.h_gid
                    if any(images[v] != perm[base[v]] for v in range(ctx.nc)):
                        witness_failures += 1
                # constructive witnesses were verified inside _classify_ids
            if emit_line is not None:
                if widx is not None:
                    wtext = ctx.witness_automorphism(widx).inline_text()
                elif witness is not None:
                    wtext = witness.inline_text()
                else:
                    wtext = "-"
                emit_line(f"{kind} {wtext}")
    except BudgetExceeded:
        complete = False
    return {
        "tallies": tallies,
        "counts": counts,
        "soundness_failures": soundness_failures,
        "witness_failures": witness_failures,
        "route_mismatches": route_mismatches,
        "complete": complete,
    }


_WORKER: dict = {}


def _branch_task(args: tuple) -> dict:
    branch, deadline, collect = args
    ctx = _WORKER["ctx"]
    order = _WORKER["order"]
    lines: list[str] = []
    partial = _run_branches(ctx, order, [branch], deadline, lines.append if collect else None)
    partial["witness_lines"] = lines
    return partial


def certify_theorem(
    n: int,
    budget_secs: Optional[float] = None,
    jobs: int = 1,
    order_variant: int = 0,
    witness_dump: Optional[str] = None,
) -> dict:
    """Classify every embedding at size n and aggregate a certificate.

    The certificate is deterministic for complete runs regardless of the
    worker count; budget-limited runs are marked non-conclusive.  The
    witness dump is written line by line as embeddings are classified.
    """
    if n not in (4, 5):
        raise ParameterError("exhaustive certification is supported for n in {4, 5}")
    if n == 5 and budget_secs is None:
        raise ParameterError("the n = 5 search space needs an explicit time budget")
    ctx = build_context(n)
    # the clock covers certification only, not the cached context build
    t0 = time.monotonic()
    order = _order_for(ctx, order_variant)
    deadline = t0 + budget_secs if budget_secs is not None else None
    branches = list(range(ctx.full.nv))
    collect = witness_dump is not None

    mp_ctx = None
    if jobs > 1:
        import multiprocessing as mp

        try:
            mp_ctx = mp.get_context("fork")
        except ValueError:
            pass

    partials: list[dict] = []
    dump = open(witness_dump, "w", encoding="utf-8") if collect else nullcontext()
    with dump as fh:
        emit_line = _numbered_writer(fh) if collect else None
        if mp_ctx is not None:
            _WORKER["ctx"] = ctx
            _WORKER["order"] = order
            with mp_ctx.Pool(jobs) as pool:
                # imap keeps branch order, so the dump numbering matches jobs = 1
                for p in pool.imap(_branch_task, [(b, deadline, collect) for b in branches]):
                    for line in p.pop("witness_lines"):
                        emit_line(line)
                    partials.append(p)
        else:
            partials.append(_run_branches(ctx, order, branches, deadline, emit_line))

    tallies = _new_tallies()
    counts = {"total": 0, "extendable": 0, "exceptional": 0, "unclassified": 0}
    soundness_failures = witness_failures = route_mismatches = 0
    complete = True
    for p in partials:
        for k in LEMMA_KEYS:
            tallies[k]["pass"] += p["tallies"][k]["pass"]
            tallies[k]["fail"] += p["tallies"][k]["fail"]
        for k in counts:
            counts[k] += p["counts"][k]
        soundness_failures += p["soundness_failures"]
        witness_failures += p["witness_failures"]
        route_mismatches += p["route_mismatches"]
        complete = complete and p["complete"]

    wall_ms = int((time.monotonic() - t0) * 1000)
    cert = {
        "n": n,
        "k": 2,
        "q": 2,
        "embeddings_total": counts["total"],
        "extendable": counts["extendable"],
        "exceptional": counts["exceptional"],
        "unclassified": counts["unclassified"],
        "lemma_chain": tallies,
        "soundness_failures": soundness_failures,
        "witness_failures": witness_failures,
        "route_mismatches": route_mismatches,
        "complete": complete,
        "wall_ms": wall_ms,
    }
    if ctx.group_order is not None:
        cert["group_order"] = ctx.group_order
        cert["distinct_restrictions"] = len(ctx.restr_index)
        cert["distinct_exceptional_images"] = len(ctx.exc_index)
        cert["exceptional_witness_unique"] = ctx.exc_collisions == 0
        # keep the mandated tail fields last
        cert["complete"] = cert.pop("complete")
        cert["wall_ms"] = cert.pop("wall_ms")
    return cert

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
from functools import cached_property
from itertools import combinations, count
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .errors import Falsified, ParameterError
from .fqlinalg import (
    Subspace,
    bits_to_vec,
    enumerate_subspaces,
    from_bits,
    gaussian_binomial,
    rank_bits,
    rref_bits,
)
from . import hmap
from .grassmann import KIND_FULL, KIND_NONDEGENERATE, backtrack, build_graph, greedy_order, iter_edges
from .autgroup import (
    GraphAutomorphism,
    apply,
    cols_bits_to_rows,
    graph_automorphisms,
    grassmann_aut_group,
    matrix_inline_text,
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
class _STarget:
    subspace: Subspace
    bits: tuple[int, ...]
    full_member_mask: int
    code_members: tuple[int, ...]


class LemmaContext:
    """Precomputed frame, graph, and index data for one ambient size.

    Everything an embedding check needs is resolved to integer tables
    here once, so the per-embedding work is plain bitmask arithmetic.
    The S_I member sets, the collapse-map images ``h_gid`` and the edge
    lists ``code_later`` are read off the line tables, with no scan over
    all planes and no call of ``hmap.h_map``.

    Proof obligations, checked as the tables are built (Falsified when
    one fails):

    - S_I is a (|I|+1)-space, and each plane inside it is spanned by any
      two of its lines, so ``plane_of_pair`` over the pairs of lines of
      S_I gives its planes; there must be exactly
      ``gaussian_binomial(|I|+1, 2, 2)`` of them.
    - The collapse map fixes the A class.  Every other code plane goes
      to the span of its lines' images under
      ``hmap.projective_morphism`` (B is fixed pointwise; a C plane goes
      to the span of the twins of its two lines outside H, whose sum is
      its line inside H).  So its image is the plane that
      ``plane_of_pair`` gives for the images of its two basis lines,
      and that plane must hold the image of its third line too.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ParameterError("embeddings are studied for ambient dimension >= 4")
        self.n = n
        self.code = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        self.full = build_graph(n, 2, 2, KIND_FULL)
        self.nc = self.code.nv

        full_index_bits = self.full.index_bits
        self.full_bits: tuple[tuple[int, ...], ...] = tuple(x.bits for x in self.full.vertices)
        self.gid: tuple[int, ...] = tuple(
            full_index_bits[x.bits] for x in self.code.vertices
        )

        # lines, their ids, the 3-line mask of every plane, and the plane
        # spanned by each pair of lines
        self.lines = enumerate_subspaces(n, 1, 2)
        self.nlines = len(self.lines)
        self.line_bits = tuple(p.bits[0] for p in self.lines)
        self.line_id = {b: i for i, b in enumerate(self.line_bits)}
        nl = self.nlines
        vmask = []
        # flat nlines x nlines table; two distinct lines span exactly one
        # plane, so only the diagonal keeps the -1 filler
        self.plane_of_pair = [-1] * (nl * nl)
        for vid, (r1, r2) in enumerate(self.full_bits):
            a, b, c = self.line_id[r1], self.line_id[r2], self.line_id[r1 ^ r2]
            vmask.append((1 << a) | (1 << b) | (1 << c))
            for x, y in ((a, b), (a, c), (b, c)):
                self.plane_of_pair[x * nl + y] = self.plane_of_pair[y * nl + x] = vid
        self.vline_mask = tuple(vmask)
        self.all_lines_mask = (1 << self.nlines) - 1

        ones = (1 << n) - 1
        self.q_lid = self.line_id[ones]
        # P^i = complement of {i}; P_i = e_i
        self.p_upper = tuple(self.line_id[ones ^ (1 << (i - 1))] for i in range(1, n + 1))
        self.p_lower = tuple(self.line_id[1 << (i - 1)] for i in range(1, n + 1))
        # the frame Q, P^1..P^(n-1), whose last n - 1 lines span H
        self.frame_lids = (self.q_lid,) + self.p_upper[:-1]
        self.frame_dst = tuple(self.line_bits[lid] for lid in self.frame_lids)
        self.pn_in_H = rank_bits(self.frame_dst[1:] + (self.line_bits[self.p_upper[-1]],)) == n - 1

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

        # the A class (the codes through Q) and its indexing by
        # representative support
        self.all_A_vids = self.sc_code[self.q_lid]
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

        # expected spans S_I = Q + sum of the chosen axes; the planes
        # inside S_I are the planes spanned by pairs of its lines
        code_of_full = [-1] * self.full.nv
        for vid, g in enumerate(self.gid):
            code_of_full[g] = vid
        pair = self.plane_of_pair
        self.subsets = [
            frozenset(c)
            for size in range(1, n)
            for c in combinations(range(1, n), size)
        ]
        self.S_expected: dict[frozenset[int], _STarget] = {}
        for I in self.subsets:
            red = rref_bits([ones] + [1 << (i - 1) for i in I])
            vecs = [0]
            for r in red:
                vecs += [v ^ r for v in vecs]
            lids = [self.line_id[v] for v in vecs[1:]]
            members = {pair[a * nl + b] for x, a in enumerate(lids) for b in lids[x + 1:]}
            want = gaussian_binomial(len(I) + 1, 2, 2)
            if len(members) != want:
                raise Falsified(f"S_{sorted(I)} holds {len(members)} planes, not {want}")
            code_members = tuple(sorted(code_of_full[p] for p in members if code_of_full[p] >= 0))
            self.S_expected[I] = _STarget(
                from_bits(red, n), red, sum(1 << p for p in members), code_members
            )
        self.three_subsets = [I for I in self.subsets if len(I) == 3]

        # collapse-map images (the second proof obligation above)
        line_img = [self.line_id[hmap.projective_morphism(p).bits[0]] for p in self.lines]
        h_gid = list(self.gid)
        a_class = set(self.all_A_vids)
        for vid, x in enumerate(self.code.vertices):
            if vid in a_class:
                continue
            r1, r2 = x.bits
            pid = pair[line_img[self.line_id[r1]] * nl + line_img[self.line_id[r2]]]
            if pid < 0 or not (self.vline_mask[pid] >> line_img[self.line_id[r1 ^ r2]]) & 1:
                raise Falsified(f"the point map sends the lines of {x.inline_text()} into no plane")
            h_gid[vid] = pid
        self.h_gid: tuple[int, ...] = tuple(h_gid)

        # orthocomplement as a vertex permutation (only when n = 2k)
        if n == 4:
            self.orth_perm: Optional[tuple[int, ...]] = tuple(
                full_index_bits[orthocomplement(x).bits] for x in self.full.vertices
            )
        else:
            self.orth_perm = None

        # the set bits of each column of the inverse of the matrix D whose
        # columns are the frame targets of normalization
        dst_inv = _solve_cols(list(self.frame_dst), [1 << t for t in range(n)], n)
        self.frame_dst_inv_bits = tuple(
            tuple(j for j in range(n) if (c >> j) & 1) for c in dst_inv
        )

        self._perm_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

        # each code vertex's neighbours with a larger id, for the soundness
        # recheck, read off the set bits of each row above its own id; the
        # tuples share the int objects of one id list
        ids = list(range(self.nc))
        later: list[list[int]] = [[] for _ in ids]
        for i, j in iter_edges(self.code):
            later[i].append(ids[j])
        self.code_later: tuple[tuple[int, ...], ...] = tuple(map(tuple, later))

    @cached_property
    def search_order(self) -> list[int]:
        """The exhaustive search's order; only the n = 4 route reads it."""
        return greedy_order(self.code.adj)

    def perm_of_cols(self, cols: tuple[int, ...]) -> tuple[int, ...]:
        """Vertex permutation of the full graph induced by a linear map
        given as column bitmasks; cached."""
        cached = self._perm_cache.get(cols)
        if cached is not None:
            return cached
        out = self._plane_images(cols, range(self.full.nv))
        self._perm_cache[cols] = out
        return out

    def _plane_images(self, cols: tuple[int, ...], vids: Iterable[int]) -> tuple[int, ...]:
        """Images of the planes ``vids`` under an invertible linear map:
        the plane spanned by basis rows r1 and r2 goes to the plane that
        the lines of their images span, read from the line-pair table.

        The 2^n vectors are pushed through ``cols`` once, each from the
        vector without its lowest bit.  A singular map sends a nonzero
        vector to 0, which is no line, so the line lookup raises KeyError;
        otherwise the map is injective on lines and the table's diagonal
        filler is never read.
        """
        img = [0] * (1 << self.n)
        for v in range(1, 1 << self.n):
            low = v & -v
            img[v] = img[v ^ low] ^ cols[low.bit_length() - 1]
        line_id = self.line_id
        image_line = [-1] + [line_id[w] for w in img[1:]]
        pair, nl, rows = self.plane_of_pair, self.nlines, self.full_bits
        out = []
        for vid in vids:
            r1, r2 = rows[vid]
            out.append(pair[image_line[r1] * nl + image_line[r2]])
        return tuple(out)

    def map_images(self, cols: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
        """Apply an invertible linear map to a tuple of vertex ids.

        At n = 4 matrices repeat heavily across embeddings, so the cached
        permutation of each one is read; at larger sizes matrices mostly
        do not repeat, so only the needed ids are mapped, through the
        images of the lines.  KeyError when the map is singular.
        """
        if self.n == 4:
            perm = self.perm_of_cols(cols)
            return tuple([perm[c] for c in images])
        return self._plane_images(cols, images)


_CTX_CACHE: dict[int, LemmaContext] = {}


def build_context(n: int, _ignored: object = None) -> LemmaContext:
    """The cached context for size n.  The second parameter is ignored:
    it exists only for the benchmark's ``build_context(4, False)`` call,
    and the next change to the benchmark should drop both."""
    ctx = _CTX_CACHE.get(n)
    if ctx is None:
        ctx = _CTX_CACHE[n] = LemmaContext(n)
    return ctx


def group_fields(ctx: LemmaContext) -> dict[str, int | bool]:
    """The certificate's group fields, read off the full graph with no
    matrices: K (K_h) is the group of automorphisms fixing every gid[v]
    (h_gid[v]), and the group order is ``graph_automorphisms``'s count.

    Proof obligations:

    - A map ``backtrack`` yields with ``induced=True`` on the full graph
      is a bijection preserving adjacency and non-adjacency, so it is an
      automorphism.  One with every gid[v] pinned to itself fixes the
      identity embedding, so the yields are exactly K; likewise K_h.
    - Two automorphisms restrict equally iff they differ by an element
      of K, so there are order / |K| distinct restrictions; likewise
      order / |K_h| distinct exceptional images.
    - A restriction equals a composite iff some automorphism sends gid
      to h_gid; that search runs to its end.

    Raises Falsified when the count differs from the generated order or
    an automorphism sends gid to h_gid.
    """
    adj = ctx.full.adj
    order = greedy_order(adj)

    def maps(src: tuple[int, ...], dst: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        domains = [(1 << len(adj)) - 1] * len(adj)
        for s, t in zip(src, dst):
            domains[s] = 1 << t
        return backtrack(adj, adj, order, domains, induced=True)

    group_order = graph_automorphisms(ctx.full)[0]
    generated = grassmann_aut_group(ctx.n, 2, 2).order
    if group_order != generated:
        raise Falsified(f"the chain counts {group_order} automorphisms, not the generated {generated}")
    if next(maps(ctx.gid, ctx.h_gid), None) is not None:
        raise Falsified(
            "an automorphism restriction coincides with a collapse composite; "
            "the exceptional map would be extendable"
        )
    fix = sum(1 for _ in maps(ctx.gid, ctx.gid))
    fix_h = sum(1 for _ in maps(ctx.h_gid, ctx.h_gid))
    return {
        "group_order": group_order,
        "distinct_restrictions": group_order // fix,
        "distinct_exceptional_images": group_order // fix_h,
        "exceptional_witness_unique": fix_h == 1,
    }


# ---------------------------------------------------------------------------
# search


def _embeddings(ctx: LemmaContext, order: list[int]) -> Iterator[tuple[int, ...]]:
    """Image tuples of every embedding, in lexicographic order of the
    images along ``order``."""
    domains = [(1 << ctx.full.nv) - 1] * ctx.nc
    return backtrack(ctx.code.adj, ctx.full.adj, order, domains)


def _order_for(ctx: LemmaContext, variant: int) -> list[int]:
    if variant:
        # alternative deterministic order for completeness cross-checks
        return list(reversed(ctx.search_order))
    return ctx.search_order


def _require_exhaustive(n: int) -> None:
    """Exhaustive search finishes only at n = 4.  At n = 5 it yields 3072
    embeddings in about 0.5 s and then none for at least 119 s, in
    backtrack's static order, so a run there could never complete."""
    if n != 4:
        raise ParameterError(f"exhaustive search is supported for n = 4 only, got n = {n}")


def enumerate_embeddings(
    n: int,
    ctx: Optional[LemmaContext] = None,
    order_variant: int = 0,
) -> Iterator[EmbeddingMap]:
    """Stream every embedding exactly once in deterministic order; only
    n = 4 is accepted (ParameterError at the call otherwise)."""
    _require_exhaustive(n)
    if ctx is None:
        ctx = build_context(n)
    return (EmbeddingMap(n, images) for images in _embeddings(ctx, _order_for(ctx, order_variant)))


def is_valid_embedding(ctx: LemmaContext, images: tuple[int, ...]) -> bool:
    """Recheck injectivity and that every code edge lands on a full edge.

    Each edge {i, j} with i < j is read once, from ``ctx.code_later[i]``.
    Only the two adjacency tables are read, never the search's order or
    domains, so the recheck is independent of the search pruning.
    """
    if len(set(images)) != len(images):
        return False
    full_adj = ctx.full.adj
    for i, later in enumerate(ctx.code_later):
        row = full_adj[images[i]]
        for j in later:
            if not (row >> images[j]) & 1:
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


_Normalization = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], bool]


def _normalize_ids(ctx: LemmaContext, images: tuple[int, ...]) -> _Normalization:
    """Return (normalized images, linear-correction columns, columns of
    its inverse, dual flag).

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
        f1 = tuple([ctx.orth_perm[c] for c in images])
        common = _common_line(ctx, (f1[v] for v in ctx.all_A_vids))
        if common is None:
            raise Falsified("orthocomplemented star image is still not a star")
    g1 = [common]
    for i, lid in enumerate(ctx.frame_lids[1:], 1):
        got = _common_line(ctx, (f1[v] for v in ctx.sc_code[lid]))
        if got is None:
            raise Falsified(f"image of the star through axis complement {i} has no unique center")
        g1.append(got)
    src = [ctx.line_bits[l] for l in g1]
    cols = _solve_cols(src, ctx.frame_dst, ctx.n)
    # cols = D S^-1 for the source and target columns S and D, so its
    # inverse S D^-1 has as column t the XOR of the sources over the bits
    # of column t of the fixed D^-1
    inv_cols = []
    for bits in ctx.frame_dst_inv_bits:
        w = 0
        for j in bits:
            w ^= src[j]
        inv_cols.append(w)
    f2 = ctx.map_images(cols, f1)
    return f2, cols, tuple(inv_cols), dualled


def normalize(ctx: LemmaContext, emb: EmbeddingMap) -> tuple[EmbeddingMap, GraphAutomorphism]:
    """Compose an automorphism so the embedding fixes the frame.

    The returned pre-map g satisfies: normalized images = g applied to
    original images (orthocomplement correction first when the maximal
    star went to a top, then the linear map moving the induced frame
    back onto the standard one).
    """
    f2, cols, inv_cols, dualled = _normalize_ids(ctx, emb.images)
    if dualled:
        # the linear map L after the orthocomplement is the flagged matrix
        # L^-T, whose rows are the columns of L^-1
        pre = GraphAutomorphism(ctx.n, tuple(bits_to_vec(c, ctx.n) for c in inv_cols), dual=True)
    else:
        pre = _automorphism(ctx.n, cols, False)
    return EmbeddingMap(ctx.n, f2), pre


def point_map(ctx: LemmaContext, emb: EmbeddingMap) -> dict[Subspace, Subspace]:
    """The induced partial point map: the centers of the stars carrying
    the images of the maximal-clique stars; defined exactly on the lines
    of support >= 3."""
    assignments: dict[Subspace, Subspace] = {}
    for lid in ctx.gprime_lids:
        got = _common_line(ctx, (emb.images[v] for v in ctx.sc_code[lid]))
        if got is None:
            raise Falsified("star image without a unique center")
        assignments[ctx.lines[lid]] = ctx.lines[got]
    return assignments


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
        # the collapse map fixes the lines inside H and twins the others
        expected = pn_lid if kind == "identity" or ctx.pn_in_H else ctx.p_lower[ctx.n - 1]
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


def _automorphism(n: int, cols: tuple[int, ...], dual: bool) -> GraphAutomorphism:
    return GraphAutomorphism(n, cols_bits_to_rows(cols, n), dual=dual)


def _normalized(ctx: LemmaContext, images: tuple[int, ...]) -> Optional[_Normalization]:
    """``_normalize_ids``'s result, or None where it raises Falsified."""
    try:
        return _normalize_ids(ctx, images)
    except Falsified:
        return None


def _classify_ids(
    ctx: LemmaContext, images: tuple[int, ...], normalized: Optional[_Normalization]
) -> tuple[str, Optional[tuple[int, ...]], bool]:
    """(kind, witness columns or None, dual flag), given ``_normalized``'s
    result for ``images``.

    The frame fixes the only automorphism that can carry the identity or
    the collapse map onto ``images``: the inverse of the normalizing map.
    It is the witness only if it reproduces every image.
    """
    if normalized is None:
        return "unclassified", None, False
    fp, _, inv_cols, dualled = normalized
    if fp == ctx.gid:
        base = ctx.gid
        kind = "extendable"
    elif fp == ctx.h_gid:
        base = ctx.h_gid
        kind = "exceptional"
    else:
        return "unclassified", None, False
    moved = ctx.map_images(inv_cols, base)
    if dualled:
        orth = ctx.orth_perm
        assert orth is not None
        moved = tuple([orth[t] for t in moved])
    if moved != images:
        return "unclassified", None, False
    return kind, inv_cols, dualled


def classify(ctx: LemmaContext, emb: EmbeddingMap) -> EmbeddingMap:
    """Attach the verdict and witness to an embedding."""
    kind, cols, dual = _classify_ids(ctx, emb.images, _normalized(ctx, emb.images))
    emb.verdict = kind
    emb.witness = None if cols is None else _automorphism(ctx.n, cols, dual)
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


def _numbered_writer(fh: TextIO) -> Callable[[str], None]:
    """Write each line to fh prefixed with its running number."""
    numbers = count()
    return lambda line: fh.write(f"{next(numbers)} {line}\n")


# the constructive verdict each endgame kind must agree with
_EXPECTED_KIND = {"identity": "extendable", "h": "exceptional", None: "unclassified"}


def _tally_checks(tallies: dict, report: dict, uses: int) -> None:
    """Add each check of ``report`` to ``tallies``, ``uses`` times."""
    for name, res in report["checks"].items():
        tallies[name]["pass" if res["passed"] else "fail"] += uses


def _run_branches(
    ctx: LemmaContext,
    stream: Iterable[tuple[int, ...]],
    emit_line: Optional[Callable[[str], None]],
) -> dict:
    """Classify every image tuple of ``stream`` and tally them;
    ``emit_line`` receives one verdict+witness line per valid embedding.
    The loop reads no clock: the caller bounds the stream."""
    tallies = {k: {"pass": 0, "fail": 0} for k in LEMMA_KEYS}
    counts = {"total": 0, "extendable": 0, "exceptional": 0, "unclassified": 0}
    soundness_failures = 0
    witness_failures = 0
    route_mismatches = 0
    # Invariant-chain reports by normalized tuple, each with its number of
    # uses.  lemma_chain reads only ctx tables and emb.images, so equal
    # tuples give equal reports, and adding a report's checks once per use
    # after the loop gives the same totals as adding them per embedding.
    # A report is kept only when its endgame matched, i.e. the tuple is
    # ctx.gid or ctx.h_gid, so at most two are held; any other tuple is a
    # would-be counterexample, gets the full chain every time and is
    # tallied at once.
    reports: dict[tuple[int, ...], list] = {}
    for images in stream:
        counts["total"] += 1
        if not is_valid_embedding(ctx, images):
            soundness_failures += 1
            continue
        norm = _normalized(ctx, images)
        tallies["normalize"]["fail" if norm is None else "pass"] += 1
        kind_endgame = None
        if norm is not None:
            entry = reports.get(norm[0])
            if entry is not None:
                entry[1] += 1
                report = entry[0]
            else:
                report = lemma_chain(ctx, EmbeddingMap(ctx.n, norm[0]))
                if report["endgame_kind"] is not None:
                    reports[norm[0]] = [report, 1]
                else:
                    _tally_checks(tallies, report, 1)
            kind_endgame = report["endgame_kind"]
        kind, wcols, dual = _classify_ids(ctx, images, norm)
        counts[kind] += 1
        # the two routes must agree: constructive verdict vs endgame
        if kind != _EXPECTED_KIND[kind_endgame]:
            route_mismatches += 1
        if wcols is None and norm is not None and norm[0] in (ctx.gid, ctx.h_gid):
            # the frame map matched, but its witness misses some image
            witness_failures += 1
        if emit_line is not None:
            # wcols already reproduced every image, so it is invertible
            wtext = "-" if wcols is None else matrix_inline_text(cols_bits_to_rows(wcols, ctx.n), dual)
            emit_line(f"{kind} {wtext}")
    for report, uses in reports.values():
        _tally_checks(tallies, report, uses)
    return {
        "tallies": tallies,
        "counts": counts,
        "soundness_failures": soundness_failures,
        "witness_failures": witness_failures,
        "route_mismatches": route_mismatches,
    }


def certify_theorem(n: int, witness_dump: Optional[str] = None) -> dict:
    """Classify every embedding at size n and aggregate a certificate.

    Only n = 4 is accepted (see ``_require_exhaustive``).  The
    certificate is deterministic apart from wall_ms.  The witness dump
    is written line by line as embeddings are classified.
    """
    _require_exhaustive(n)
    ctx = build_context(n)
    fields = group_fields(ctx)
    # the clock covers certification only, not the cached context build
    # or the group fields
    t0 = time.monotonic()
    dump = open(witness_dump, "w", encoding="utf-8") if witness_dump is not None else nullcontext()
    with dump as fh:
        emit_line = _numbered_writer(fh) if fh is not None else None
        res = _run_branches(ctx, _embeddings(ctx, ctx.search_order), emit_line)
    counts = res["counts"]
    cert = {
        "n": n,
        "k": 2,
        "q": 2,
        "embeddings_total": counts["total"],
        "extendable": counts["extendable"],
        "exceptional": counts["exceptional"],
        "unclassified": counts["unclassified"],
        "lemma_chain": res["tallies"],
        "soundness_failures": res["soundness_failures"],
        "witness_failures": res["witness_failures"],
        "route_mismatches": res["route_mismatches"],
    }
    cert.update(fields)
    # a constant: the byte-stable payload and perfbench's oracle keep "complete": true
    cert["complete"] = True
    cert["wall_ms"] = int((time.monotonic() - t0) * 1000)
    return cert

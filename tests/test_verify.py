import copy
import hashlib
import itertools
import json
import random
import time
import tracemalloc
import types

import pytest

import codegraph.verify as verify
from codegraph import hmap
from codegraph.errors import Falsified, ParameterError
from codegraph.autgroup import (
    GraphAutomorphism,
    apply,
    gl2_cols_stream,
    identity_automorphism,
    vertex_permutation,
)
from codegraph.fqlinalg import bits_to_vec, enumerate_subspaces, from_bits, rank_bits, rref, rref_bits, vec_to_bits
from codegraph.grassmann import SearchPlan, backtrack, greedy_order, mask_ids
from codegraph.hmap import abc_partition, h_map, line_support, p_copoint, special_frame
from codegraph.verify import (
    EmbeddingMap,
    LEMMA_KEYS,
    build_context,
    certify_theorem,
    classify,
    enumerate_embeddings,
    falsified,
    is_valid_embedding,
    lemma_chain,
    normalize,
    point_map,
    recheck_witness,
    _normalize_ids,
    _order_for,
)


def swap_automorphism(n: int, i: int, j: int) -> GraphAutomorphism:
    cols = [1 << c for c in range(n)]
    cols[i - 1], cols[j - 1] = cols[j - 1], cols[i - 1]
    return GraphAutomorphism(n, tuple(cols))


def axes(I: int) -> list[int]:
    """The axes 1..n-1 of the subset with indicator vector I."""
    return [i + 1 for i in mask_ids(I)]


def in_span(rows, basis) -> bool:
    """Whether every packed row lies in the span of the independent rows
    ``basis``, decided by rank rather than by reduction against them."""
    return rank_bits(tuple(basis) + tuple(rows)) == len(basis)


def restriction_images(ctx, a: GraphAutomorphism) -> tuple[int, ...]:
    index = ctx.full.index
    return tuple(index[apply(a, x)] for x in ctx.code.vertices)


def composite_images(ctx, a: GraphAutomorphism) -> tuple[int, ...]:
    index = ctx.full.index
    return tuple(
        index[apply(a, ctx.full.vertices[ctx.h_gid[v]])] for v in range(ctx.nc)
    )


def test_context_sanity(ctx4):
    assert ctx4.nc == 13
    assert ctx4.full.nv == 35
    assert len({ctx4.A_vids[I] for I in ctx4.subsets}) == 7
    assert len(ctx4.a_singleton) == 3
    assert len(ctx4.b_pair_vids) == 3
    assert len(ctx4.gprime_lids) == 5  # the all-ones line plus four axes complements
    for I in ctx4.subsets:
        target = ctx4.S_expected[I]
        assert len(target.bits) == I.bit_count() + 1
        assert len(target.code_members) >= 1
    # every star used for frame recovery has at least two members
    for lid in ((1 << 4) - 1, *ctx4.p_upper):
        assert len(ctx4.sc_code[lid]) >= 2
    assert ctx4.pn_in_H is False  # even n: the complement of the last axis is outside H


def test_parity_of_pn_across_sizes():
    # membership of the last axis complement in H alternates with n,
    # matching the hyperplane functional read off the frame
    for n, expected in ((4, False), (5, True), (6, False)):
        ctx = build_context(n)
        assert ctx.pn_in_H is expected


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_frame_read_off_the_line_table_matches_the_subspace_frame(n):
    # the context reads the frame off its line table; the Subspace-level
    # frame and partition stay the reference
    ctx = build_context(n)
    frame = special_frame(n)
    assert ctx.all_A_vids == ctx.sc_code[(1 << n) - 1] == tuple(sorted(abc_partition(ctx.code).A))
    frame_lines = [from_bits((lid,), n) for lid in ctx.frame_lids]
    assert frame_lines == [frame.Q] + [p_copoint({i}, n) for i in range(1, n)]
    assert rref([p.rows[0] for p in frame_lines[1:]], n, 2) == frame.H
    assert ctx.frame_lids == tuple(p.bits[0] for p in frame_lines)
    assert ctx.pn_in_H is frame.H.contains(from_bits((ctx.p_upper[n - 1],), n))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_lines_and_subsets_are_indexed_by_their_vectors(n):
    # a line's index is its packed vector and a subset's is its indicator;
    # the planes' own vectors, the Subspace membership test, the axis
    # combinations and the line enumeration stay the reference
    ctx = build_context(n)
    for p, x in enumerate(ctx.full.vertices):
        assert ctx.vline_mask[p] == sum(1 << vec_to_bits(v) for v in x.nonzero_vectors()), p
    assert len(ctx.sc_code) == 1 << n and ctx.sc_code[0] == ()
    for v in range(1, 1 << n):
        vec = bits_to_vec(v, n)
        assert ctx.sc_code[v] == tuple(c for c, x in enumerate(ctx.code.vertices) if x.contains_vector(vec)), v
    combos = [list(c) for size in range(1, n) for c in itertools.combinations(range(1, n), size)]
    assert [axes(I) for I in ctx.subsets] == combos
    gprime = [p for p in enumerate_subspaces(n, 1, 2) if len(line_support(p)) >= 3]
    assert [from_bits((v,), n) for v in ctx.gprime_lids] == gprime


def brute_force_s_targets(ctx) -> dict:
    """Reference S_I tables: every plane of G(n,2) tested for membership
    in the vectors of S_I."""
    ones = (1 << ctx.n) - 1
    out = {}
    for I in ctx.subsets:
        red = rref_bits([ones] + [1 << (i - 1) for i in axes(I)])
        vecs = frozenset(vec_to_bits(v) for v in from_bits(red, ctx.n).vectors())
        mask = 0
        for vid, (r1, r2) in enumerate(ctx.full_bits):
            if r1 in vecs and r2 in vecs:
                mask |= 1 << vid
        members = tuple(v for v in range(ctx.nc) if (mask >> ctx.gid[v]) & 1)
        out[I] = (red, mask, members)
    return out


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_tables_read_off_the_line_tables_match_the_reference(n):
    # the context reads S_I and the collapse images off its line tables;
    # the per-plane membership scan and the paper's h_map stay the oracle
    ctx = build_context(n)
    index = ctx.full.index
    assert ctx.h_gid == tuple(index[h_map(x)] for x in ctx.code.vertices)
    expected = brute_force_s_targets(ctx)
    assert [I for I, target in enumerate(ctx.S_expected) if target is not None] == sorted(expected)
    for I, target in enumerate(ctx.S_expected):
        if target is None:
            continue
        red, mask, members = expected[I]
        assert (target.bits, target.code_members) == (red, members), axes(I)
        # the line mask holds the lines inside S_I, one scan per line
        lines = sum(1 << v for v in range(1, 1 << n) if in_span((v,), red))
        assert target.line_mask == lines, axes(I)
        # and a plane lies in S_I iff none of its lines is outside it
        outside = ctx.all_lines_mask ^ target.line_mask
        assert sum(1 << vid for vid, m in enumerate(ctx.vline_mask) if not m & outside) == mask, axes(I)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_two_distinct_planes_are_adjacent_iff_their_line_masks_meet(n):
    # the soundness recheck's reading of adjacency against the full graph
    ctx = build_context(n)
    masks, full = ctx.vline_mask, ctx.full
    if n < 7:
        pairs = itertools.combinations(range(full.nv), 2)
    else:
        rng = random.Random(70)
        pairs = (rng.sample(range(full.nv), 2) for _ in range(20000))
    for a, b in pairs:
        assert bool(masks[a] & masks[b]) == full.is_edge(a, b), (a, b)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_plane_of_vecs_holds_the_span_of_every_independent_pair(n):
    ctx = build_context(n)
    index = ctx.full.index
    table = ctx.plane_of_vecs
    assert len(table) == 1 << 2 * n
    for v in range(1 << n):
        for w in range(1 << n):
            got = table[v << n | w]
            if v and w and v != w:
                assert got == index[from_bits(rref_bits([v, w]), n)], (v, w)
            else:
                assert got == -1, (v, w)


@pytest.mark.parametrize("n", [4, 5])
def test_context_refuses_a_point_map_that_sends_a_plane_into_no_plane(monkeypatch, n):
    # fault: one line outside H on a C-class plane is fixed instead of
    # twinned, so that plane's three line images span more than a plane
    code = build_context(n).code
    frame = special_frame(n)
    c_plane = code.vertices[min(abc_partition(code).C)]
    moved = next(p for p in c_plane.lines() if not frame.H.contains(p))
    real = hmap.projective_morphism
    monkeypatch.setattr(hmap, "projective_morphism", lambda p: p if p == moved else real(p))
    with pytest.raises(Falsified, match="into no plane"):
        verify.LemmaContext(n)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("wrong", ["Q", "the indicator of {2}"])
def test_context_refuses_an_indicator_plane_off_the_a_class(monkeypatch, n, wrong):
    # fault: the indicator vector of {1} comes out as Q itself, so its
    # lookup lands on no plane, or as the indicator of {2}, so the A plane
    # of {1} is never reached; the subsets are sums over the axis
    # combinations, 0-based, so {1} is the combination (0,); the context is
    # built directly, not through build_context, so nothing enters the cache
    real = itertools.combinations
    bad = tuple(range(n)) if wrong == "Q" else (1,)
    monkeypatch.setattr(verify, "combinations", lambda it, r: [bad if c == (0,) else c for c in real(it, r)])
    cached = dict(verify._CTX_CACHE)
    with pytest.raises(Falsified, match="not the A class"):
        verify.LemmaContext(n)
    assert verify._CTX_CACHE == cached


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_a_planes_are_looked_up_by_indicator(n):
    # the A plane of I against the Subspace span of Q and P_I
    ctx = build_context(n)
    frame = special_frame(n)
    index = ctx.full.index
    for I in ctx.subsets:
        want = index[rref(frame.Q.rows + hmap.p_point(axes(I), n).rows)]
        assert ctx.gid[ctx.A_vids[I]] == want, axes(I)
    assert sorted(ctx.A_vids[I] for I in ctx.subsets) == list(ctx.all_A_vids)


def test_context_refuses_an_s_i_of_the_wrong_size(monkeypatch):
    real = verify.gaussian_binomial
    monkeypatch.setattr(verify, "gaussian_binomial", lambda n, k, q: real(n, k, q) + 1)
    with pytest.raises(Falsified, match="planes, not"):
        verify.LemmaContext(4)


def test_identity_and_h_are_valid_embeddings(ctx4):
    assert is_valid_embedding(ctx4, ctx4.gid)
    assert is_valid_embedding(ctx4, ctx4.h_gid)


def test_soundness_recheck_flags_corruption(ctx4):
    images = list(ctx4.gid)
    images[0] = images[1]
    assert not is_valid_embedding(ctx4, tuple(images))  # injectivity
    # break adjacency: map two adjacent code vertices to non-adjacent planes
    i, j = next(
        (i, j)
        for i in range(ctx4.nc)
        for j in range(ctx4.nc)
        if i != j and ctx4.code.is_edge(i, j)
    )
    bad = list(ctx4.gid)
    target = next(
        t
        for t in range(ctx4.full.nv)
        if t not in bad and not ctx4.full.is_edge(bad[i], t)
    )
    bad[j] = target
    assert not is_valid_embedding(ctx4, tuple(bad))


# -- the soundness recheck against an independent pairwise reference ---------


def pairwise_recheck(ctx, images) -> bool:
    """Reference recheck: injectivity, then every code vertex pair."""
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


def code_edges(ctx) -> list[tuple[int, int]]:
    """Code edges (i, j), i < j, read off the code adjacency rows."""
    return [
        (i, j) for i in range(ctx.nc) for j in range(i + 1, ctx.nc) if ctx.code.is_edge(i, j)
    ]


def moved_off_edge(ctx, images, i, j) -> tuple[int, ...]:
    """``images`` with images[j] moved to an unused plane not adjacent to
    images[i], so the code edge {i, j} is lost."""
    used = set(images)
    target = next(
        t for t in range(ctx.full.nv)
        if t not in used and not (ctx.full.adj[images[i]] >> t) & 1
    )
    out = list(images)
    out[j] = target
    return tuple(out)


def without_line(ctx, vid, lid):
    """A view of ``ctx`` whose line mask of plane ``vid`` lacks line
    ``lid``, so every edge whose images share only that line looks lost."""
    masks = list(ctx.vline_mask)
    masks[vid] &= ~(1 << lid)
    return types.SimpleNamespace(code_stars=ctx.code_stars, vline_mask=masks, orth_perm=ctx.orth_perm)


def with_full_edges(ctx, pairs):
    """A view of ``ctx`` whose full graph's rows have the spurious edges
    ``pairs`` added, for the pairwise reference, which reads those rows."""
    adj = list(ctx.full.adj)
    for a, b in pairs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return types.SimpleNamespace(nc=ctx.nc, code=ctx.code, full=types.SimpleNamespace(adj=adj))


def star_common_line(ctx, images, star) -> int:
    """The mask of the lines that the images of ``star`` all share."""
    common = ctx.all_lines_mask
    for v in star:
        common &= ctx.vline_mask[images[v]]
    return common


def star_centre(ctx, images, star):
    """The one line that the images of ``star`` share, or None; the line
    masks are ANDed here, not through the route's own helper."""
    common = star_common_line(ctx, images, star)
    return common.bit_length() - 1 if common.bit_count() == 1 else None


@pytest.mark.parametrize("n", [4, 5, 7])
def test_code_stars_hold_every_code_edge_once(n):
    ctx = build_context(n)
    pairs = sorted(p for star in ctx.code_stars for p in itertools.combinations(star, 2))
    assert pairs == code_edges(ctx)
    assert ctx.code_stars == tuple(s for s in ctx.sc_code if len(s) >= 2)


def test_context_refuses_stars_that_miss_an_edge(monkeypatch):
    # fault: the A-class star reads as holding a single plane, so it drops
    # out of the code stars and the recheck would skip its edges
    ctx = build_context(4)
    dropped = ctx.sc_code[(1 << 4) - 1]
    monkeypatch.setattr(verify, "len", lambda x: 1 if x == dropped else len(x), raising=False)
    with pytest.raises(Falsified, match="pairs, not the 51 code edges"):
        verify.LemmaContext(4)


@pytest.mark.parametrize("swap", [False, True])
def test_context_refuses_an_orthocomplement_that_is_not_an_automorphism(monkeypatch, swap):
    # fault: one plane's orthocomplement reads as another plane's (no
    # longer an involution), or two planes swap their orthocomplements
    # (still an involution, but their rows differ); either way the
    # recheck's orthocomplement step could vouch for edges that are lost
    full = build_context(4).full
    real = verify.orthocomplement
    x, y = full.vertices[0], full.vertices[1]
    assert full.adj[0] != full.adj[1]
    wrong = {x: real(y)}
    if swap:
        wrong.update({y: real(x), real(x): y, real(y): x})
    monkeypatch.setattr(verify, "orthocomplement", lambda s: wrong[s] if s in wrong else real(s))
    with pytest.raises(Falsified, match="the orthocomplement is no automorphism"):
        verify.LemmaContext(4)
    assert build_context(4).orth_perm == tuple(full.index[real(s)] for s in full.vertices)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_recheck_agrees_with_the_pairwise_reference(n):
    ctx = build_context(n)
    edges = code_edges(ctx)
    # the last edge starts at the largest id that has a later neighbour
    first, last = edges[0], edges[-1]
    maps = {"gid": ctx.gid, "h_gid": ctx.h_gid}
    if n == 4:
        stream = itertools.islice(enumerate_embeddings(4, ctx=ctx), 0, 8000, 40)
        for k, e in enumerate(stream):
            dual = _normalize_ids(ctx, e.images)[3]
            maps[f"{'dual-' if dual else ''}stream-{k}"] = e.images
            if dual:
                # every star of three or more is sent to a top, so its
                # pairs are tested one by one
                assert not any(star_common_line(ctx, e.images, s) for s in ctx.code_stars if len(s) > 2)
        assert sum(name.startswith("dual-") for name in maps) >= 50
    for base_name, base in (("gid", ctx.gid), ("h_gid", ctx.h_gid)):
        collided = list(base)
        collided[-1] = collided[0]
        maps[f"{base_name}-collision"] = tuple(collided)
        for edge_name, (i, j) in (("first", first), ("last", last)):
            maps[f"{base_name}-lost-{edge_name}"] = moved_off_edge(ctx, base, i, j)
        swapped = list(base)
        swapped[first[0]], swapped[last[1]] = swapped[last[1]], swapped[first[0]]
        maps[f"{base_name}-swapped"] = tuple(swapped)
        # an edge lost inside the largest star: the last member's image
        # still meets the first's but not the second's, and the other
        # images keep their common line
        star = max(ctx.code_stars, key=len)
        moved = list(base)
        moved[star[-1]] = next(
            t for t in range(ctx.full.nv)
            if t not in base and ctx.full.is_edge(t, base[star[0]]) and not ctx.full.is_edge(t, base[star[1]])
        )
        assert star_common_line(ctx, moved, star[:-1]) and not star_common_line(ctx, moved, star)
        maps[f"{base_name}-lost-in-star"] = tuple(moved)
    bases = [ctx.gid, ctx.h_gid]
    orth = ctx.orth_perm
    if n == 4:
        # the same maps after the orthocomplement: each star of three or
        # more goes to a top, so the recheck reaches its orthocomplement
        # step, and in the lost-in-star maps that step finds the star's
        # orthocomplements one line short
        for name in [name for name in maps if "stream" not in name]:
            maps[f"orth-{name}"] = tuple(orth[c] for c in maps[name])
        for base_name in ("gid", "h_gid"):
            dual = maps[f"orth-{base_name}"]
            assert not any(star_common_line(ctx, dual, s) for s in ctx.code_stars if len(s) > 2)
            moved = maps[f"orth-{base_name}-lost-in-star"]
            assert not star_common_line(ctx, moved, star[:-1])
            dual_moved = tuple(orth[c] for c in moved)
            assert star_common_line(ctx, dual_moved, star[:-1]) and not star_common_line(ctx, dual_moved, star)
            bases.append(dual)
    for name, images in maps.items():
        expected = pairwise_recheck(ctx, images)
        assert is_valid_embedding(ctx, images) is expected, name
        assert expected is (name.removeprefix("orth-") in ("gid", "h_gid") or "stream" in name), name
    for i, j in (first, last):
        for base in bases:
            # a true edge, the first or the last, looks lost: one image's
            # line mask lacks the line that the edge's images share, and
            # at n = 4 so does its orthocomplement's, or the
            # orthocomplement step would still vouch for the edge
            view = ctx
            for a, b in ((base[i], base[j]),) + (((orth[base[i]], orth[base[j]]),) if orth else ()):
                shared = ctx.vline_mask[a] & ctx.vline_mask[b]
                assert shared.bit_count() == 1
                view = without_line(view, a, shared.bit_length() - 1)
            assert is_valid_embedding(view, base) is False
            # a map that sends the edge onto a non-adjacent pair, judged
            # against rows that carry a spurious edge for every lost pair:
            # the reference reads the rows and passes it, the recheck
            # reads the planes' lines and does not
            moved = moved_off_edge(ctx, base, i, j)
            lost = [(moved[a], moved[b]) for a, b in code_edges(ctx) if not ctx.full.is_edge(moved[a], moved[b])]
            assert (moved[i], moved[j]) in lost
            assert pairwise_recheck(with_full_edges(ctx, lost), moved) is True
            assert is_valid_embedding(ctx, moved) is False


def test_stream_builds_its_own_context_when_given_none(ctx4):
    own = list(itertools.islice(enumerate_embeddings(4), 50))
    given = list(itertools.islice(enumerate_embeddings(4, ctx=build_context(4)), 50))
    assert len(own) == 50 and [e.images for e in own] == [e.images for e in given]


def test_stream_is_deterministic(ctx4):
    first = list(itertools.islice(enumerate_embeddings(4, ctx=ctx4), 50))
    second = list(itertools.islice(enumerate_embeddings(4, ctx=ctx4), 50))
    assert [e.images for e in first] == [e.images for e in second]
    for e in first:
        assert is_valid_embedding(ctx4, e.images)


def test_h_appears_in_its_branch(ctx4):
    order = _order_for(ctx4, 0)
    domains = [(1 << ctx4.full.nv) - 1] * ctx4.nc
    domains[order[0]] = 1 << ctx4.h_gid[order[0]]
    assert ctx4.h_gid in backtrack(SearchPlan(ctx4.code.adj, order), ctx4.full.adj, domains)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_frame_narrowed_fail_first_search_finds_the_identity_and_the_collapse(n):
    # every code vertex on the star of a frame line Q, P^1..P^(n-1) may
    # only go to the planes through that line; from there the dynamic
    # order finds exactly the two maps of the dichotomy (a static order
    # stalls on these domains at n = 7)
    ctx = build_context(n)
    domains = [(1 << ctx.full.nv) - 1] * ctx.nc
    for lid in ctx.frame_lids:
        through = sum(1 << c for c, lines in enumerate(ctx.vline_mask) if (lines >> lid) & 1)
        for v in ctx.sc_code[lid]:
            domains[v] &= through
    found = list(backtrack(SearchPlan(ctx.code.adj, None), ctx.full.adj, domains))
    assert sorted(found) == sorted([ctx.gid, ctx.h_gid])


def test_frame_narrowed_fail_first_search_keeps_no_snapshot_per_forced_step():
    # at n = 7 the search makes (n-1)^2 forced steps on 364 code vertices
    # before its one choice point; a snapshot of every domain at each of
    # them peaked at 4.7 MiB, one snapshot per choice point at 0.3 MiB
    ctx = build_context(7)
    domains = [(1 << ctx.full.nv) - 1] * ctx.nc
    for lid in ctx.frame_lids:
        through = sum(1 << c for c, lines in enumerate(ctx.vline_mask) if (lines >> lid) & 1)
        for v in ctx.sc_code[lid]:
            domains[v] &= through
    plan = SearchPlan(ctx.code.adj, None)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        found = list(backtrack(plan, ctx.full.adj, domains))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(found) == sorted([ctx.gid, ctx.h_gid])
    assert peak < 1.5 * 2**20, peak


def test_wall_ms_covers_certification_only(ctx4, monkeypatch, bound_stream):
    # the context build and the group fields both come before the clock
    for name in ("build_context", "group_fields"):
        real = getattr(verify, name)

        def slow(*args, _real=real, **kwargs):
            time.sleep(0.5)
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, slow)
    bound_stream(100)
    cert = certify_theorem(4)
    assert cert["embeddings_total"] == 100
    assert cert["wall_ms"] < 500


def test_normalize_h_is_fixed(ctx4):
    emb = EmbeddingMap(4, ctx4.h_gid)
    normed, pre = normalize(ctx4, emb)
    assert normed.images == ctx4.h_gid
    assert pre.is_identity


def test_normalize_linear_restriction(ctx4):
    a = swap_automorphism(4, 1, 3)
    emb = EmbeddingMap(4, restriction_images(ctx4, a))
    normed, pre = normalize(ctx4, emb)
    assert normed.images == ctx4.gid
    # the pre-map undoes the automorphism on every image
    for v in range(ctx4.nc):
        moved = apply(pre, ctx4.full.vertices[emb.images[v]])
        assert ctx4.full.index[moved] == normed.images[v]


def test_normalize_dual_restriction(ctx4):
    a = GraphAutomorphism(4, identity_automorphism(4).cols, dual=True)
    emb = EmbeddingMap(4, restriction_images(ctx4, a))
    normed, pre = normalize(ctx4, emb)
    assert normed.images == ctx4.gid
    assert pre.dual
    for v in range(ctx4.nc):
        moved = apply(pre, ctx4.full.vertices[emb.images[v]])
        assert ctx4.full.index[moved] == normed.images[v]


# -- normalization against the elimination route -----------------------------


def push(cols: tuple[int, ...], v: int) -> int:
    """Image of the packed vector v under the map with these columns."""
    w = 0
    for t, c in enumerate(cols):
        if (v >> t) & 1:
            w ^= c
    return w


def solve_cols(src, dst, n):
    """Reference: column bitmasks of the matrix sending src[j] to dst[j].

    Reduce the rows (src_j | dst_j << n).  When the sources span, the
    left block lands on the identity and row t reads off the image of
    the t-th basis vector; otherwise it cannot, and Falsified is raised.
    """
    red = rref_bits(s | (d << n) for s, d in zip(src, dst))
    if len(red) != n or any((r & ((1 << n) - 1)) != (1 << t) for t, r in enumerate(red)):
        raise Falsified("frame images do not determine an invertible map")
    return tuple(r >> n for r in red)


def reference_normalize(ctx, images):
    """Reference for ``_normalize_ids``: the frame map by elimination, its
    inverse through the fixed inverse of the frame matrix D."""
    n = ctx.n
    a_images = [images[v] for v in ctx.all_A_vids]
    common = star_centre(ctx, images, ctx.all_A_vids)
    dualled, f1 = False, images
    if common is None:
        if ctx.orth_perm is None:
            raise Falsified("image of the maximal star is not a star")
        if rank_bits([r for c in a_images for r in ctx.full_bits[c]]) != 3:
            raise Falsified("image of the maximal star is neither a star nor a top")
        dualled, f1 = True, tuple(ctx.orth_perm[c] for c in images)
        common = star_centre(ctx, f1, ctx.all_A_vids)
        if common is None:
            raise Falsified("orthocomplemented star image is still not a star")
    g1 = [common]
    for i, lid in enumerate(ctx.frame_lids[1:], 1):
        got = star_centre(ctx, f1, ctx.sc_code[lid])
        if got is None:
            raise Falsified(f"image of the star through axis complement {i} has no unique center")
        g1.append(got)
    src = g1
    cols = solve_cols(src, ctx.frame_lids, n)
    # cols = D S^-1, so its inverse S D^-1 has as column t the XOR of the
    # sources over the set bits of column t of D^-1
    dst_inv = solve_cols(list(ctx.frame_lids), [1 << t for t in range(n)], n)
    inv_cols = tuple(push(tuple(src), c) for c in dst_inv)
    return ctx.map_images(cols, f1), cols, inv_cols, dualled


def normalized_or_error(fn, ctx, images):
    try:
        return fn(ctx, images)
    except Falsified as exc:
        return str(exc)


def test_solve_cols_rejects_sources_that_do_not_span():
    basis = [1 << t for t in range(4)]
    images = [0b0011, 0b0010, 0b0100, 0b1000]
    assert solve_cols(basis, images, 4) == tuple(images)
    with pytest.raises(Falsified):
        solve_cols([0b0001, 0b0010, 0b0011, 0b1000], basis, 4)  # dependent
    with pytest.raises(Falsified):
        solve_cols(basis[:3], basis[:3], 4)  # one vector short


def test_normalization_matches_the_elimination_route_on_the_n4_stream(ctx4, n4_stream_sample):
    assert len(n4_stream_sample) == 2016
    for images in n4_stream_sample:
        assert _normalize_ids(ctx4, images) == reference_normalize(ctx4, images)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_normalization_matches_the_elimination_route_on_seeded_maps(n):
    # restrictions and collapse composites of seeded matrices, some with
    # two images swapped or one image replaced, so the rejections are
    # compared too (as their messages); at n = 4 a third of them are
    # orthocomplemented and a third have their A-star images collapsed
    # onto one or two planes, which the rank-free top test must reject
    # or pass as the reference's rank test does
    ctx = build_context(n)
    rng = random.Random(500 + n)
    outcomes = set()
    for k in range(600 if n == 4 else 200):
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        while rank_bits(cols) != n:
            cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        images = list(ctx.map_images(cols, ctx.gid if k % 2 else ctx.h_gid))
        if k % 4 == 1:
            a, b = rng.sample(range(ctx.nc), 2)
            images[a], images[b] = images[b], images[a]
        elif k % 4 == 3:
            images[rng.randrange(ctx.nc)] = rng.randrange(ctx.full.nv)
        if n == 4 and k % 3 == 1:
            images = [ctx.orth_perm[c] for c in images]
        elif n == 4 and k % 3 == 2:
            kept = [images[v] for v in ctx.all_A_vids[: 1 + k % 2]]
            for v in ctx.all_A_vids:
                images[v] = rng.choice(kept)
        images = tuple(images)
        got = normalized_or_error(_normalize_ids, ctx, images)
        assert got == normalized_or_error(reference_normalize, ctx, images), k
        outcomes.add(got if isinstance(got, str) else ("linear", "dual")[got[3]])
    assert "linear" in outcomes and len(outcomes) >= 3
    assert ("dual" in outcomes) is ("image of the maximal star is neither a star nor a top" in outcomes) is (n == 4)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_a_frame_image_that_does_not_span_is_rejected(n):
    # fault: the star through the second axis complement carries the
    # images of the star through the first, so both recover the same
    # center and the frame images repeat a vector
    ctx = copy.copy(build_context(n))
    first, second = ctx.frame_lids[1:3]
    stars = list(ctx.sc_code)
    stars[second] = stars[first]
    ctx.sc_code = tuple(stars)
    for images in (ctx.gid, ctx.h_gid):
        with pytest.raises(Falsified, match="frame images do not determine an invertible map"):
            _normalize_ids(ctx, images)
        assert normalized_or_error(reference_normalize, ctx, images) == (
            "frame images do not determine an invertible map"
        )


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_plane_images_match_the_subspace_action(n):
    # the line-pair table route against autgroup.apply through Subspace
    ctx = build_context(n)
    rng = random.Random(100 + n)
    every = tuple(range(ctx.full.nv))
    for _ in range(30):
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        while rank_bits(cols) != n:
            cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        want = vertex_permutation(GraphAutomorphism(n, cols), ctx.full)
        assert ctx.map_images(cols, every) == want


@pytest.mark.parametrize(
    "n, cols",
    [
        (4, (0b0001, 0b0010, 0b0100, 0b0111)),  # rank 3
        (4, (0b0001, 0b0010, 0b0100, 0b0100)),  # repeated column
        (5, (0b00011, 0b00110, 0b01100, 0b11000, 0b10001)),  # rank 4
        (5, (0b00001, 0b00010, 0b00100, 0b01000, 0b00010)),  # repeated column
    ],
)
def test_singular_maps_raise_instead_of_returning_a_plane(n, cols):
    ctx = build_context(n)
    kernel = {v for v in range(1, 1 << n) if push(cols, v) == 0}
    assert kernel
    with pytest.raises(ValueError, match="singular"):
        ctx.map_images(cols, ctx.gid)


def test_lemma_chain_identity_and_h(ctx4):
    rep = lemma_chain(ctx4, EmbeddingMap(4, ctx4.gid))
    assert all(c["passed"] for c in rep["checks"].values())
    assert rep["endgame_kind"] == "identity"

    rep = lemma_chain(ctx4, EmbeddingMap(4, ctx4.h_gid))
    assert all(c["passed"] for c in rep["checks"].values())
    assert rep["endgame_kind"] == "h"


def reference_subset_spans(ctx, fp):
    """The reduced span of each S_I's plane images, indexed by I, reduced
    from scratch: one ``rref_bits`` over all the rows of I's planes per
    subset."""
    spans = [()] * (1 << ctx.n - 1)
    for I in ctx.subsets:
        rows = []
        for i in axes(I):
            rows.extend(ctx.full_bits[fp[ctx.a_singleton[i - 1]]])
        spans[I] = rref_bits(rows)
    return spans


def reference_lemma_chain(ctx, fp):
    """Reference invariant chain, one plain loop per check: lemma3 finds
    each star's centre through ``star_centre``, lemma4 tests every S_I
    member's line mask in turn, lemma5 tests its hypothesis member by
    member, and the spans come from ``reference_subset_spans``."""
    gid = ctx.gid
    vline_mask = ctx.vline_mask
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
    spans = reference_subset_spans(ctx, fp)
    for I in ctx.subsets:
        actual, target = spans[I], ctx.S_expected[I]
        if actual != target.bits:
            if eq4_ok:
                eq4_ok, eq4_witness = False, {"I": axes(I)}
        a_vid = ctx.A_vids[I]
        if not in_span(ctx.full_bits[fp[a_vid]], actual):
            if lemma1_ok:
                lemma1_ok, lemma1_witness = False, {"I": axes(I)}
        # a plane lies in S_I iff none of its lines is outside S_I
        outside = ctx.all_lines_mask ^ target.line_mask if actual == target.bits else None
        for v in target.code_members:
            img = fp[v]
            inside = (
                not vline_mask[img] & outside
                if outside is not None
                else in_span(ctx.full_bits[img], actual)
            )
            if not inside:
                if lemma4_ok:
                    lemma4_ok, lemma4_witness = False, {"I": axes(I), "vertex": v}
                break
    record("eq4", eq4_ok, eq4_witness)
    record("lemma1", lemma1_ok, lemma1_witness)
    record("lemma4", lemma4_ok, lemma4_witness)

    bad = next(
        (I for I in ctx.subsets if fp[ctx.A_vids[I]] != gid[ctx.A_vids[I]]), None
    )
    record("lemma2", bad is None, None if bad is None else {"I": axes(bad)})

    lemma3_ok = True
    lemma3_witness = None
    for lid in ctx.gprime_lids:
        got = star_centre(ctx, fp, ctx.sc_code[lid])
        line = from_bits((lid,), ctx.n)
        if got is None:
            lemma3_ok, lemma3_witness = False, {"line": line.inline_text()}
            break
        if line == special_frame(ctx.n).Q:
            allowed = (lid,)
        else:
            allowed = (lid, p_copoint(line_support(line), ctx.n).bits[0])
        if got not in allowed:
            lemma3_ok, lemma3_witness = False, {
                "line": line.inline_text(),
                "image": from_bits((got,), ctx.n).inline_text(),
            }
            break
    record("lemma3", lemma3_ok, lemma3_witness)

    lemma5_ok = True
    lemma5_witness = None
    identity = fp == gid
    for I in ctx.three_subsets:
        hyp = all(fp[v] == gid[v] for v in ctx.S_expected[I].code_members)
        if hyp and not identity:
            lemma5_ok, lemma5_witness = False, {"I": axes(I)}
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
    got = star_centre(ctx, fp, ctx.sc_code[pn_lid])
    if got is not None and kind is not None:
        # the collapse map fixes the lines inside H and twins the others
        expected = pn_lid if kind == "identity" or ctx.pn_in_H else 1 << (ctx.n - 1)
        g1_pn_ok = got == expected
        if not g1_pn_ok:
            g1_pn_witness = {"image": from_bits((got,), ctx.n).inline_text()}
    record("g1_pn", g1_pn_ok, g1_pn_witness)

    return {
        "checks": checks,
        "endgame_kind": kind,
        "pn_in_H": ctx.pn_in_H,
    }


def assert_chain_matches_the_reference(ctx, images_list) -> set[str]:
    """Spans equal the per-subset reduction's, and whole reports (checks,
    witnesses, endgame kind) equal ``reference_lemma_chain``'s, on every
    tuple; returns the names of the checks that failed somewhere."""
    reports = []
    for images in images_list:
        assert verify._subset_spans(ctx, images) == reference_subset_spans(ctx, images)
        reports.append(lemma_chain(ctx, EmbeddingMap(ctx.n, images)))
        assert reports[-1] == reference_lemma_chain(ctx, images), images
    return {name for rep in reports for name, res in rep["checks"].items() if not res["passed"]}


def seeded_chain_inputs(ctx, rng, size):
    """Normalized restrictions and collapse composites of seeded matrices,
    normalized maps with one collision or one lost edge, as the classify
    batches draw them, and gid and h_gid with two images swapped or one
    replaced, unnormalized."""
    out = []
    for k in range(size):
        cols = tuple(rng.randrange(1, 1 << ctx.n) for _ in range(ctx.n))
        while rank_bits(cols) != ctx.n:
            cols = tuple(rng.randrange(1, 1 << ctx.n) for _ in range(ctx.n))
        base = ctx.gid if k % 2 else ctx.h_gid
        images = list(ctx.map_images(cols, base))
        v = rng.randrange(ctx.nc)
        if k % 3 == 1:
            images[v] = images[rng.choice([w for w in range(ctx.nc) if w != v])]
        elif k % 3 == 2:
            u = rng.choice(mask_ids(ctx.code.adj[v]))
            images[v] = rng.choice([c for c in range(ctx.full.nv) if not ctx.full.is_edge(c, images[u])])
        normalized = normalized_or_error(_normalize_ids, ctx, tuple(images))
        if isinstance(normalized, tuple):
            out.append(normalized[0])
        moved = list(base)
        a, b = rng.sample(range(ctx.nc), 2)
        moved[a], moved[b] = moved[b], moved[a]
        moved[rng.randrange(ctx.nc)] = rng.randrange(ctx.full.nv)
        out.append(tuple(moved))
    return out


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_grown_spans_match_the_per_subset_reduction_on_seeded_maps(n):
    ctx = build_context(n)
    failed = assert_chain_matches_the_reference(ctx, seeded_chain_inputs(ctx, random.Random(900 + n), 60))
    # the spans that differ from S_I are reached too, and every loop that
    # reads the mask list fails somewhere (lemma5 only has room past n = 4)
    assert {"eq4", "lemma1", "lemma3", "lemma4"} | ({"lemma5"} if n > 4 else set()) <= failed


def test_grown_spans_match_the_per_subset_reduction_on_the_n4_stream(ctx4, n4_stream_sample):
    normalized = [_normalize_ids(ctx4, images)[0] for images in n4_stream_sample]
    assert set(normalized) == {ctx4.gid, ctx4.h_gid}
    # the raw images move the S_I, so spans that differ from S_I are reached
    failed = assert_chain_matches_the_reference(ctx4, [*n4_stream_sample, *normalized])
    assert {"eq4", "lemma4"} <= failed


# sha256 of the chain reports and point maps below, computed before the
# context's tables were indexed by vectors; the reference chain is ported
# along with the route, so only this pin catches a drift in their order
CHAIN_REPORT_PINS = {
    4: "be76a9ae5bbf68f396e415d523a1f4bc2bd342614729e5a99c250c481fcd36db",
    5: "2f2b2293bd4c91d42718e83bc00ed3ebd6ce1e7c5014ac3ea2d73d2a7a81be52",
    6: "66ad16c27f2d514d86a430b584c8d45f89214531f2967726ecdedd6b3d8f948b",
    7: "f7851237e30b961ed84a0dc5fc4233089e299f1ec8ad2d419bb963cc51235b18",
}


def chain_report_lines(ctx, images_list):
    """One JSON line per tuple: its whole chain report, then its point map
    as (line, image) text pairs in dict order, or the exception's name."""
    for images in images_list:
        emb = EmbeddingMap(ctx.n, images)
        try:
            pm = [[p.inline_text(), g.inline_text()] for p, g in point_map(ctx, emb).items()]
        except Falsified as exc:
            pm = type(exc).__name__
        yield json.dumps([lemma_chain(ctx, emb), pm])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_chain_reports_and_point_maps_are_pinned(n):
    # the seeded chain inputs, then unnormalized restrictions and collapse
    # composites, whose stars keep a centre that is not their own line
    ctx = build_context(n)
    rng = random.Random(1300 + n)
    images_list = seeded_chain_inputs(ctx, rng, 20)
    for k in range(6):
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        while rank_bits(cols) != n:
            cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        images_list.append(ctx.map_images(cols, ctx.gid if k % 2 else ctx.h_gid))
    lines = list(chain_report_lines(ctx, images_list))
    # witnesses of failed checks and both point-map outcomes are in the pin
    assert any('"passed": false, "witness": {"line": "' in line and '"image": "' in line for line in lines)
    assert any(line.endswith('"Falsified"]') for line in lines) and any(line.endswith("]]]") for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CHAIN_REPORT_PINS[n]


def test_lemma5_hypothesis_fails_everywhere_for_h(ctx4):
    # the collapse map moves some member of every 3-subset block
    for I in ctx4.three_subsets:
        members = ctx4.S_expected[I].code_members
        assert any(ctx4.h_gid[v] != ctx4.gid[v] for v in members)


def test_g1_of_last_axis_complement_for_h(ctx4):
    # at even n the collapse map sends the star through the last axis
    # complement onto the star of the last axis line
    from codegraph.verify import _common_line

    pn = ctx4.p_upper[ctx4.n - 1]
    got = _common_line(ctx4, ctx4.h_gid, ctx4.sc_code[pn])
    assert got == 1 << (ctx4.n - 1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_g1_pn_fails_with_an_image_witness_when_pn_in_H_is_flipped(n):
    # fault: a fresh context (not the cached one) that misreads whether
    # P^n lies in H, so the chain expects the wrong line for the image of
    # the star through P^n under the collapse map
    ctx = verify.LemmaContext(n)
    truly_in_H = ctx.pn_in_H
    ctx.pn_in_H = not truly_in_H
    # the collapse map fixes P^n inside H and sends it to e_n otherwise
    image = ctx.p_upper[n - 1] if truly_in_H else 1 << (n - 1)
    report = lemma_chain(ctx, EmbeddingMap(n, ctx.h_gid))
    assert report["endgame_kind"] == "h"
    assert report["checks"]["g1_pn"] == {"passed": False, "witness": {"image": from_bits((image,), n).inline_text()}}
    assert [name for name, res in report["checks"].items() if not res["passed"]] == ["g1_pn"]
    # the identity expects P^n itself whatever the flag says
    assert lemma_chain(ctx, EmbeddingMap(n, ctx.gid))["checks"]["g1_pn"] == {"passed": True, "witness": None}


def test_point_map_invariants(ctx4):
    emb = EmbeddingMap(4, ctx4.h_gid)
    pm = point_map(ctx4, emb)
    frame = special_frame(4)
    # defined exactly on the all-ones line and lines of support >= 3
    assert set(pm) == {
        from_bits((lid,), 4) for lid in ctx4.gprime_lids
    }
    assert all(
        p == frame.Q or len(line_support(p)) >= 3 for p in pm
    )
    # images of each star lie inside the star of the assigned line
    for lid in ctx4.gprime_lids:
        p = from_bits((lid,), 4)
        g1p = pm[p]
        for v in ctx4.sc_code[lid]:
            assert ctx4.full.vertices[ctx4.h_gid[v]].contains(g1p)


def test_classify_h_and_identity(ctx4):
    h_emb = classify(ctx4, EmbeddingMap(4, ctx4.h_gid))
    assert h_emb.verdict == "exceptional"
    assert h_emb.witness.is_identity
    id_emb = classify(ctx4, EmbeddingMap(4, ctx4.gid))
    assert id_emb.verdict == "extendable"
    assert id_emb.witness.is_identity
    assert recheck_witness(ctx4, h_emb)
    assert recheck_witness(ctx4, id_emb)


@pytest.mark.parametrize("witness", ["none", "swap"])
def test_recheck_witness_rejects_a_missing_or_wrong_witness(ctx4, witness):
    # the identity embedding with no witness, or with a swap of two
    # coordinates, which moves some of its images
    a = None if witness == "none" else swap_automorphism(4, 1, 2)
    assert not recheck_witness(ctx4, EmbeddingMap(4, ctx4.gid, "extendable", a))


def test_classify_restriction_recovers_the_automorphism(ctx4):
    for a in (swap_automorphism(4, 1, 2), swap_automorphism(4, 2, 4)):
        emb = classify(ctx4, EmbeddingMap(4, restriction_images(ctx4, a)))
        assert emb.verdict == "extendable"
        assert emb.witness == a
        comp = classify(ctx4, EmbeddingMap(4, composite_images(ctx4, a)))
        assert comp.verdict == "exceptional"
        assert comp.witness == a


@pytest.fixture(scope="module")
def group_images(ctx4):
    """Every restriction and every collapse composite of Aut G(4,2), one
    per group element (test_generated_equals_direct_on_full_graph shows
    these permutations are the whole group)."""
    restrictions, composites = [], []
    orth = ctx4.orth_perm
    for cols in gl2_cols_stream(4):
        p = ctx4.map_images(cols, range(ctx4.full.nv))
        for perm in (p, tuple(orth[t] for t in p)):
            restrictions.append(tuple(perm[t] for t in ctx4.gid))
            composites.append(tuple(perm[t] for t in ctx4.h_gid))
    return restrictions, composites


def test_h_is_not_any_restriction(ctx4, group_images):
    restrictions, composites = group_images
    assert ctx4.h_gid not in set(restrictions)
    assert not set(restrictions) & set(composites)


def test_group_scan_rejects_a_collapse_map_that_is_a_restriction(monkeypatch):
    # fault: the collapse map is replaced by the restriction of a swap
    ctx = verify.LemmaContext(4)
    monkeypatch.setattr(ctx, "h_gid", restriction_images(ctx, swap_automorphism(4, 1, 2)))
    with pytest.raises(Falsified, match="no non-edge became an edge"):
        verify.group_fields(ctx)


@pytest.mark.parametrize("name", ["gid", "h_gid"])
def test_group_fields_reject_pins_that_leave_two_planes_alike(monkeypatch, name):
    # fault: only three planes are pinned, so unpinned planes share their
    # neighbours among them and the stabilizer check cannot prove K trivial
    ctx = verify.LemmaContext(4)
    monkeypatch.setattr(ctx, name, getattr(ctx, name)[:3])
    with pytest.raises(Falsified, match=rf"planes \S+ and \S+ have the same neighbours among the {name} planes"):
        verify.group_fields(ctx)


def test_group_fields_reject_an_off_by_one_chain_count(ctx4, monkeypatch):
    # fault: the stabilizer chain counts one automorphism too many
    real = verify.graph_automorphisms
    monkeypatch.setattr(verify, "graph_automorphisms", lambda g: (real(g)[0] + 1, []))
    with pytest.raises(Falsified, match="40321"):
        verify.group_fields(ctx4)


def test_group_fields_match_explicit_sets(ctx4, group_images):
    restrictions, composites = group_images
    fields = verify.group_fields(ctx4)
    assert fields == {
        "group_order": len(restrictions),
        "distinct_restrictions": len(set(restrictions)),
        "distinct_exceptional_images": len(set(composites)),
        "exceptional_witness_unique": len(set(composites)) == len(composites),
    }
    assert fields["group_order"] == 40320


def test_group_fields_build_one_plan_the_chains(plan_builds):
    # the chain's orbit searches are the only searches; the stabilizer and
    # pair checks run none
    ctx = build_context(5)
    assert verify.group_fields(ctx)["group_order"] == 9999360
    assert len(plan_builds.plans) == 1
    assert plan_builds.searches > 1


def reference_group_searches(ctx):
    """|K|, |K_h| and the number of automorphisms sending gid to h_gid, by
    induced search on the full graph with the images pinned: each map is
    a bijection keeping adjacency and non-adjacency, so an automorphism."""
    adj = ctx.full.adj
    plan = SearchPlan(adj, greedy_order(adj), induced=True)

    def count(src, dst):
        domains = [(1 << len(adj)) - 1] * len(adj)
        for s, t in zip(src, dst):
            domains[s] = 1 << t
        return sum(1 for _ in backtrack(plan, adj, domains))

    return count(ctx.gid, ctx.gid), count(ctx.h_gid, ctx.h_gid), count(ctx.gid, ctx.h_gid)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_group_fields_agree_with_the_reference_searches(n):
    ctx = build_context(n)
    fix, fix_h, crossing = reference_group_searches(ctx)
    assert (fix, fix_h, crossing) == (1, 1, 0)
    fields = verify.group_fields(ctx)
    order = fields["group_order"]
    assert fields == {
        "group_order": order,
        "distinct_restrictions": order // fix,
        "distinct_exceptional_images": order // fix_h,
        "exceptional_witness_unique": fix_h == 1,
    }


def test_group_fields_past_n4():
    assert verify.group_fields(build_context(5)) == {
        "group_order": 9999360,
        "distinct_restrictions": 9999360,
        "distinct_exceptional_images": 9999360,
        "exceptional_witness_unique": True,
    }


def test_constructive_route_recovers_sampled_group_elements(ctx4):
    # restriction and collapse composite of a seeded sample of the group:
    # each classifies with that very element as its witness
    rng = random.Random(7)
    for cols in rng.sample(list(gl2_cols_stream(4)), 100):
        for dual in (False, True):
            a = GraphAutomorphism(4, cols, dual=dual)
            emb = classify(ctx4, EmbeddingMap(4, restriction_images(ctx4, a)))
            assert emb.verdict == "extendable" and emb.witness == a
            comp = classify(ctx4, EmbeddingMap(4, composite_images(ctx4, a)))
            assert comp.verdict == "exceptional" and comp.witness == a


def test_context_refuses_n_below_4():
    with pytest.raises(ParameterError, match="ambient dimension >= 4"):
        verify.LemmaContext(3)


def test_certify_rejects_unsupported_n():
    with pytest.raises(ParameterError):
        certify_theorem(6)
    with pytest.raises(ParameterError):
        certify_theorem(5)  # the exhaustive search stalls at n = 5
    with pytest.raises(ParameterError):
        next(iter(enumerate_embeddings(5)))


def test_n5_constructive_classification():
    ctx = build_context(5)
    h_emb = classify(ctx, EmbeddingMap(5, ctx.h_gid))
    assert h_emb.verdict == "exceptional"
    assert h_emb.witness.is_identity
    a = swap_automorphism(5, 2, 5)
    emb = classify(ctx, EmbeddingMap(5, restriction_images(ctx, a)))
    assert emb.verdict == "extendable"
    assert emb.witness == a
    assert recheck_witness(ctx, emb)
    rep = lemma_chain(ctx, normalize(ctx, EmbeddingMap(5, ctx.h_gid))[0])
    assert all(c["passed"] for c in rep["checks"].values())
    assert rep["endgame_kind"] == "h"
    assert rep["pn_in_H"] is True


def test_n5_partial_run_smoke():
    # the 3072 embeddings the n = 5 search yields before it stalls
    ctx5 = build_context(5)
    stream = itertools.islice(verify._embeddings(ctx5, _order_for(ctx5, 0)), 3072)
    res = verify._certificate(ctx5, stream, {}, None)
    counts = {key: res[key] for key in ("embeddings_total", "extendable", "exceptional", "unclassified")}
    assert counts == {"embeddings_total": 3072, "extendable": 1536, "exceptional": 1536, "unclassified": 0}
    assert res["soundness_failures"] == res["witness_failures"] == res["route_mismatches"] == 0
    for key in LEMMA_KEYS:
        assert res["lemma_chain"][key] == {"pass": 3072, "fail": 0}, key
    assert falsified(res) is False


def test_embedding_map_invariants_on_stream(ctx4):
    for e in itertools.islice(enumerate_embeddings(4, ctx=ctx4), 200):
        assert len(set(e.images)) == ctx4.nc
        for i in range(ctx4.nc):
            for j in range(i + 1, ctx4.nc):
                if ctx4.code.is_edge(i, j):
                    assert ctx4.full.is_edge(e.images[i], e.images[j])


def test_lemma_keys_cover_certificate(certificate4):
    assert tuple(certificate4["lemma_chain"]) == LEMMA_KEYS


def test_composites_are_valid_embeddings(ctx4):
    for a in (swap_automorphism(4, 1, 4), swap_automorphism(4, 2, 3)):
        assert is_valid_embedding(ctx4, composite_images(ctx4, a))
        assert is_valid_embedding(ctx4, restriction_images(ctx4, a))


def test_frame_equation_before_normalization(ctx4):
    # for any valid embedding, the image of each frame block is the span
    # of the recovered center lines, before any correction is applied
    from codegraph.fqlinalg import subspace_sum
    from codegraph.verify import _common_line

    for a in (swap_automorphism(4, 1, 2), swap_automorphism(4, 3, 4)):
        images = restriction_images(ctx4, a)
        g1_q = _common_line(ctx4, images, ctx4.all_A_vids)
        for i in range(1, 4):
            lid = ctx4.p_upper[i - 1]
            g1_pi = _common_line(ctx4, images, ctx4.sc_code[lid])
            want = subspace_sum(from_bits((g1_q,), 4), from_bits((g1_pi,), 4))
            got = ctx4.full.vertices[images[ctx4.a_singleton[i - 1]]]
            assert got == want


def test_certificate_invariant_across_orders(certificate4, monkeypatch):
    # the certification stream in the cross-check's order, fail-first
    real_embeddings, real_backtrack = verify._embeddings, verify.backtrack
    orders, plans = [], []

    def cross_check_order(ctx, order):
        orders.append(_order_for(ctx, 1))
        return real_embeddings(ctx, orders[-1])

    def search(plan, *args):
        plans.append(plan)
        return real_backtrack(plan, *args)

    monkeypatch.setattr(verify, "_embeddings", cross_check_order)
    monkeypatch.setattr(verify, "backtrack", search)
    base = dict(certificate4)
    base.pop("wall_ms")
    other_order = certify_theorem(4)
    other_order.pop("wall_ms")
    assert orders == [None]
    # the stream ran through a dynamic plan (the group fields' chain and
    # searches keep their static plans)
    assert [p.order for p in plans if p.src_adj is build_context(4).code.adj] == [None]
    assert other_order == base


# -- the invariant-chain memo inside the certification loop -----------------


# at n = 4 the stream's first 2304 embeddings are those that send the
# first vertex in order to full vertex 0
ROOT_BRANCH = 2304


def root_branch(ctx):
    """Image tuples of the stream's first ROOT_BRANCH embeddings."""
    return itertools.islice(verify._embeddings(ctx, _order_for(ctx, 0)), ROOT_BRANCH)


def run_root_branch(ctx):
    """The certification loop on root branch 0."""
    return verify._certificate(ctx, root_branch(ctx), {}, None)


def counting_lemma_chain(monkeypatch, alter=None):
    calls = []

    def wrapper(ctx, emb):
        calls.append(emb.images)
        report = lemma_chain(ctx, emb)
        return report if alter is None else alter(ctx, emb, report)

    monkeypatch.setattr(verify, "lemma_chain", wrapper)
    return calls


def test_memo_runs_the_chain_once_per_tuple_and_tallies_every_embedding(ctx4, monkeypatch):
    calls = counting_lemma_chain(monkeypatch)
    res = run_root_branch(ctx4)
    assert len(calls) == 2
    assert sorted(calls) == sorted([ctx4.gid, ctx4.h_gid])
    total = res["embeddings_total"]
    assert total == ROOT_BRANCH and res["soundness_failures"] == 0
    for key in LEMMA_KEYS:
        assert res["lemma_chain"][key]["pass"] + res["lemma_chain"][key]["fail"] == total
        assert res["lemma_chain"][key]["fail"] == 0
    assert falsified(res) is False


def test_memo_counts_a_cached_failure_once_per_embedding(ctx4, monkeypatch):
    # fault: the chain rejects the collapse map's endgame and reports the
    # wrong kind, so the constructive and endgame routes disagree on every
    # exceptional embedding; the report is still cached
    def fail_endgame_for_h(ctx, emb, report):
        if emb.images != ctx.h_gid:
            return report
        checks = dict(report["checks"])
        checks["endgame"] = {"passed": False, "witness": None}
        return {**report, "checks": checks, "endgame_kind": "identity"}

    calls = counting_lemma_chain(monkeypatch, fail_endgame_for_h)
    res = run_root_branch(ctx4)
    assert len(calls) == 2
    exceptional = res["exceptional"]
    assert exceptional == 1152
    assert res["lemma_chain"]["endgame"]["fail"] == exceptional
    assert res["route_mismatches"] == exceptional
    assert falsified(res) is True


def swapped_gid(ctx, images):
    """One fixed non-frame tuple: the identity with two images swapped."""
    fp = list(ctx.gid)
    fp[0], fp[1] = fp[1], fp[0]
    return tuple(fp)


@pytest.mark.parametrize(
    "fault",
    [lambda ctx, images: images, swapped_gid],
    ids=["raw-images", "one-repeated-tuple"],
)
def test_memo_reruns_the_chain_for_every_would_be_counterexample(ctx4, monkeypatch, fault):
    identity_cols = tuple(1 << t for t in range(ctx4.n))
    # fault: normalization hands back tuples that are mostly neither the
    # identity nor the collapse map
    monkeypatch.setattr(
        verify,
        "_normalize_ids",
        lambda ctx, images: (fault(ctx, images), identity_cols, identity_cols, False),
    )
    calls = counting_lemma_chain(monkeypatch)
    res = run_root_branch(ctx4)
    stream = [fault(ctx4, images) for images in root_branch(ctx4)]
    frame_maps = {ctx4.gid, ctx4.h_gid}
    others = sum(1 for fp in stream if fp not in frame_maps)
    assert others > 0
    assert len(calls) == others + len(frame_maps & set(stream))
    assert res["lemma_chain"]["endgame"]["fail"] == others
    assert falsified(res) is True


def test_one_normalization_per_embedding(ctx4, monkeypatch):
    # fault: normalization rejects every tuple with an even second image
    def failing(images):
        return images[1] % 2 == 0

    calls = []

    def rejecting(ctx, images):
        calls.append(images)
        if failing(images):
            raise Falsified("injected")
        return _normalize_ids(ctx, images)

    monkeypatch.setattr(verify, "_normalize_ids", rejecting)
    res = run_root_branch(ctx4)
    stream = list(root_branch(ctx4))
    rejected = sum(1 for images in stream if failing(images))
    assert 0 < rejected < len(stream)
    assert calls == stream
    assert res["lemma_chain"]["normalize"]["fail"] == res["unclassified"] == rejected
    assert res["route_mismatches"] == 0
    assert falsified(res) is True


def test_witness_failures_count_every_broken_constructive_witness(ctx4, monkeypatch):
    # fault: for every dual embedding the inverse the route uses gets its
    # first column changed, so its witness no longer reproduces the images
    def corrupted(ctx, images):
        fp, cols, inv_cols, dual = _normalize_ids(ctx, images)
        if dual:
            inv_cols = (inv_cols[0] ^ inv_cols[1],) + inv_cols[1:]
        return fp, cols, inv_cols, dual

    affected = sum(_normalize_ids(ctx4, images)[3] for images in root_branch(ctx4))
    monkeypatch.setattr(verify, "_normalize_ids", corrupted)
    res = run_root_branch(ctx4)
    assert 0 < affected < res["embeddings_total"]
    assert res["witness_failures"] == affected
    assert res["unclassified"] == affected
    assert res["route_mismatches"] == affected
    assert falsified(res) is True


def test_witness_dump_of_a_complete_run(certificate4_with_dump):
    cert, dump = certificate4_with_dump
    assert cert["complete"] is True
    lines = [line.split(" ", 2) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 80640
    assert [int(parts[0]) for parts in lines] == list(range(80640))
    verdicts = [parts[1] for parts in lines]
    assert verdicts.count("extendable") == cert["extendable"]
    assert verdicts.count("exceptional") == cert["exceptional"]
    # every group element is the witness of exactly one line of each kind
    for kind in ("extendable", "exceptional"):
        assert len({parts[2] for parts in lines if parts[1] == kind}) == 40320


def test_the_n4_payload_and_dump_are_byte_stable(certificate4_with_dump):
    # the n = 4 certificate apart from wall_ms, with its key order, and
    # the witness dump, as the CLI writes them
    cert, dump = certificate4_with_dump
    payload = {key: value for key, value in cert.items() if key != "wall_ms"}
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c83e0294806598b6b288310121175abf12c6b41de5f34e9d12e4da00b9a32a5c"
    )
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "903ee5efef77e15fc07ba6eaf2590b2a608613c8f0b13c94289796827dfe95db"
    )


FAULTS = [("unclassified",), ("soundness_failures",), ("witness_failures",), ("route_mismatches",)] + [
    ("lemma_chain", key, "fail") for key in LEMMA_KEYS
]


@pytest.mark.parametrize("path", [None] + FAULTS, ids=["clean"] + ["/".join(p) for p in FAULTS])
def test_falsified_reads_every_failure_field(certificate4, path):
    cert = copy.deepcopy(certificate4)
    if path is not None:
        *outer, last = path
        target = cert
        for key in outer:
            target = target[key]
        target[last] = 1
    assert falsified(cert) is (path is not None)

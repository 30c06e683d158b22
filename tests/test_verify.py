import copy
import hashlib
import itertools
import json
import random
import time
import types

import pytest

import codegraph.verify as verify
from codegraph import hmap
from codegraph.errors import Falsified, ParameterError
from codegraph.autgroup import (
    GraphAutomorphism,
    apply,
    cols_bits_to_rows,
    gl2_cols_stream,
    identity_automorphism,
    vertex_permutation,
)
from codegraph.fqlinalg import from_bits, rank_bits, rref, rref_bits, vec_to_bits
from codegraph.grassmann import backtrack
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
    _solve_cols,
)


def swap_automorphism(n: int, i: int, j: int) -> GraphAutomorphism:
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
    return GraphAutomorphism(n, tuple(tuple(r) for r in rows))


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
    assert len(ctx4.A_vids) == 7
    assert len(ctx4.a_singleton) == 3
    assert len(ctx4.b_pair_vids) == 3
    assert len(ctx4.gprime_lids) == 5  # the all-ones line plus four axes complements
    for I, target in ctx4.S_expected.items():
        assert len(target.bits) == len(I) + 1
        assert len(target.code_members) >= 1
    # every star used for frame recovery has at least two members
    for lid in (ctx4.q_lid, *ctx4.p_upper):
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
    assert ctx.all_A_vids == ctx.sc_code[ctx.q_lid] == tuple(sorted(abc_partition(ctx.code).A))
    frame_lines = [ctx.lines[lid] for lid in ctx.frame_lids]
    assert frame_lines == [frame.Q] + [p_copoint({i}, n) for i in range(1, n)]
    assert rref([p.rows[0] for p in frame_lines[1:]], n, 2) == frame.H
    assert ctx.frame_dst == tuple(p.bits[0] for p in frame_lines)
    assert ctx.pn_in_H is frame.H.contains(ctx.lines[ctx.p_upper[n - 1]])


def brute_force_s_targets(ctx) -> dict:
    """Reference S_I tables: every plane of G(n,2) tested for membership
    in the vectors of S_I."""
    ones = (1 << ctx.n) - 1
    out = {}
    for I in ctx.subsets:
        red = rref_bits([ones] + [1 << (i - 1) for i in I])
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
    assert list(ctx.S_expected) == list(expected)
    for I, target in ctx.S_expected.items():
        assert (target.bits, target.full_member_mask, target.code_members) == expected[I], sorted(I)


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
    """Code edges (i, j), i < j, read off the code adjacency rows, in the
    order the recheck visits them."""
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


def without_full_edge(ctx, a, b):
    """A view of ``ctx`` whose full graph lacks the one edge {a, b}, so a
    map sending a code edge onto {a, b} loses exactly that edge."""
    adj = list(ctx.full.adj)
    adj[a] &= ~(1 << b)
    adj[b] &= ~(1 << a)
    return types.SimpleNamespace(
        nc=ctx.nc,
        code=ctx.code,
        code_later=ctx.code_later,
        full=types.SimpleNamespace(adj=adj),
    )


@pytest.mark.parametrize("n", [4, 5, 7])
def test_edge_table_lists_every_code_edge_once(n):
    ctx = build_context(n)
    assert sum(map(len, ctx.code_later)) == ctx.code.edge_count
    assert all(j > i for i, later in enumerate(ctx.code_later) for j in later)
    assert [(i, j) for i, later in enumerate(ctx.code_later) for j in later] == code_edges(ctx)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_recheck_agrees_with_the_pairwise_reference(n):
    ctx = build_context(n)
    edges = code_edges(ctx)
    # the last edge starts at the largest id that has a later neighbour
    first, last = edges[0], edges[-1]
    maps = {"gid": ctx.gid, "h_gid": ctx.h_gid}
    if n == 4:
        stream = itertools.islice(enumerate_embeddings(4, ctx=ctx), 0, 8000, 40)
        maps.update((f"stream-{k}", e.images) for k, e in enumerate(stream))
    for base_name, base in (("gid", ctx.gid), ("h_gid", ctx.h_gid)):
        collided = list(base)
        collided[-1] = collided[0]
        maps[f"{base_name}-collision"] = tuple(collided)
        for edge_name, (i, j) in (("first", first), ("last", last)):
            maps[f"{base_name}-lost-{edge_name}"] = moved_off_edge(ctx, base, i, j)
        swapped = list(base)
        swapped[first[0]], swapped[last[1]] = swapped[last[1]], swapped[first[0]]
        maps[f"{base_name}-swapped"] = tuple(swapped)
    for name, images in maps.items():
        expected = pairwise_recheck(ctx, images)
        assert is_valid_embedding(ctx, images) is expected, name
        assert expected is (name in ("gid", "h_gid") or name.startswith("stream")), name
    # a map that loses exactly one edge, the first or the last: the target
    # graph lacks just the image of that edge
    for i, j in (first, last):
        for base in (ctx.gid, ctx.h_gid):
            view = without_full_edge(ctx, base[i], base[j])
            assert pairwise_recheck(view, base) is False
            assert is_valid_embedding(view, base) is False


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
    assert ctx4.h_gid in backtrack(ctx4.code.adj, ctx4.full.adj, order, domains)


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
    a = GraphAutomorphism(4, identity_automorphism(4).rows, dual=True)
    emb = EmbeddingMap(4, restriction_images(ctx4, a))
    normed, pre = normalize(ctx4, emb)
    assert normed.images == ctx4.gid
    assert pre.dual
    for v in range(ctx4.nc):
        moved = apply(pre, ctx4.full.vertices[emb.images[v]])
        assert ctx4.full.index[moved] == normed.images[v]


def test_solve_cols_rejects_sources_that_do_not_span():
    basis = [1 << t for t in range(4)]
    images = [0b0011, 0b0010, 0b0100, 0b1000]
    assert _solve_cols(basis, images, 4) == tuple(images)
    with pytest.raises(Falsified):
        _solve_cols([0b0001, 0b0010, 0b0011, 0b1000], basis, 4)  # dependent
    with pytest.raises(Falsified):
        _solve_cols(basis[:3], basis[:3], 4)  # one vector short


def push(cols: tuple[int, ...], v: int) -> int:
    """Image of the packed vector v under the map with these columns."""
    w = 0
    for t, c in enumerate(cols):
        if (v >> t) & 1:
            w ^= c
    return w


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
        want = vertex_permutation(GraphAutomorphism(n, cols_bits_to_rows(cols, n)), ctx.full)
        assert ctx.map_images(cols, every) == want
        if n == 4:
            assert ctx.perm_of_cols(cols) == want


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
    with pytest.raises(KeyError):
        ctx.map_images(cols, ctx.gid)
    if n == 4:
        with pytest.raises(KeyError):
            ctx.perm_of_cols(cols)
        assert cols not in ctx._perm_cache


def test_lemma_chain_identity_and_h(ctx4):
    rep = lemma_chain(ctx4, EmbeddingMap(4, ctx4.gid))
    assert all(c["passed"] for c in rep["checks"].values())
    assert rep["endgame_kind"] == "identity"

    rep = lemma_chain(ctx4, EmbeddingMap(4, ctx4.h_gid))
    assert all(c["passed"] for c in rep["checks"].values())
    assert rep["endgame_kind"] == "h"


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
    got = _common_line(ctx4, (ctx4.h_gid[v] for v in ctx4.sc_code[pn]))
    assert got == ctx4.p_lower[ctx4.n - 1]


def test_point_map_invariants(ctx4):
    emb = EmbeddingMap(4, ctx4.h_gid)
    pm = point_map(ctx4, emb)
    frame = special_frame(4)
    # defined exactly on the all-ones line and lines of support >= 3
    assert set(pm) == {
        ctx4.lines[lid] for lid in ctx4.gprime_lids
    }
    assert all(
        p == frame.Q or len(line_support(p)) >= 3 for p in pm
    )
    # images of each star lie inside the star of the assigned line
    for lid in ctx4.gprime_lids:
        p = ctx4.lines[lid]
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
        p = ctx4.perm_of_cols(cols)
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
    with pytest.raises(Falsified, match="coincides"):
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
            a = GraphAutomorphism(4, cols_bits_to_rows(cols, 4), dual=dual)
            emb = classify(ctx4, EmbeddingMap(4, restriction_images(ctx4, a)))
            assert emb.verdict == "extendable" and emb.witness == a
            comp = classify(ctx4, EmbeddingMap(4, composite_images(ctx4, a)))
            assert comp.verdict == "exceptional" and comp.witness == a


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
    stream = itertools.islice(verify._embeddings(ctx5, ctx5.search_order), 3072)
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
        g1_q = _common_line(ctx4, (images[v] for v in ctx4.all_A_vids))
        for i in range(1, 4):
            lid = ctx4.p_upper[i - 1]
            g1_pi = _common_line(ctx4, (images[v] for v in ctx4.sc_code[lid]))
            want = subspace_sum(ctx4.lines[g1_q], ctx4.lines[g1_pi])
            got = ctx4.full.vertices[images[ctx4.a_singleton[i - 1]]]
            assert got == want


def test_certificate_invariant_across_orders(certificate4, monkeypatch):
    # the certification stream, in the reversed search order
    real = verify._embeddings
    orders = []

    def reversed_order(ctx, order):
        orders.append(_order_for(ctx, 1))
        return real(ctx, orders[-1])

    monkeypatch.setattr(verify, "_embeddings", reversed_order)
    base = dict(certificate4)
    base.pop("wall_ms")
    other_order = certify_theorem(4)
    other_order.pop("wall_ms")
    assert orders == [list(reversed(build_context(4).search_order))]
    assert other_order == base


# -- the invariant-chain memo inside the certification loop -----------------


# at n = 4 the stream's first 2304 embeddings are those that send the
# first vertex in order to full vertex 0
ROOT_BRANCH = 2304


def root_branch(ctx):
    """Image tuples of the stream's first ROOT_BRANCH embeddings."""
    return itertools.islice(verify._embeddings(ctx, ctx.search_order), ROOT_BRANCH)


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

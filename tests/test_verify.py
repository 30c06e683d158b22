import itertools
import random
import time

import pytest

import codegraph.verify as verify
from codegraph.errors import BudgetExceeded, Falsified, ParameterError
from codegraph.autgroup import GraphAutomorphism, apply, identity_automorphism
from codegraph.fqlinalg import rref
from codegraph.hmap import line_support, special_frame
from codegraph.verify import (
    EmbeddingMap,
    LEMMA_KEYS,
    build_context,
    certify_theorem,
    classify,
    enumerate_embeddings,
    is_valid_embedding,
    lemma_chain,
    normalize,
    point_map,
    recheck_witness,
    _classify_ids,
    _order_for,
    _solve_cols,
)


def swap_automorphism(n: int, i: int, j: int) -> GraphAutomorphism:
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
    return GraphAutomorphism(n, 2, tuple(tuple(r) for r in rows))


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
        assert target.subspace.k == len(I) + 1
        assert len(target.code_members) >= 1
    # every star used for frame recovery has at least two members
    for lid in (ctx4.q_lid, *ctx4.p_upper):
        assert len(ctx4.sc_code[lid]) >= 2
    assert ctx4.pn_in_H is False  # even n: the complement of the last axis is outside H


def test_parity_of_pn_across_sizes():
    # membership of the last axis complement in H alternates with n,
    # matching the hyperplane functional read off the frame
    for n, expected in ((4, False), (5, True), (6, False)):
        ctx = build_context(n, with_tables=False) if n != 4 else build_context(4)
        assert ctx.pn_in_H is expected


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


def test_stream_is_deterministic(ctx4):
    first = list(itertools.islice(enumerate_embeddings(4, ctx=ctx4), 50))
    second = list(itertools.islice(enumerate_embeddings(4, ctx=ctx4), 50))
    assert [e.images for e in first] == [e.images for e in second]
    for e in first:
        assert is_valid_embedding(ctx4, e.images)


def test_h_appears_in_its_branch(ctx4):
    order = _order_for(ctx4, 0)
    branch = ctx4.h_gid[order[0]]
    found = any(
        e.images == ctx4.h_gid
        for e in enumerate_embeddings(4, ctx=ctx4, first_vertices=[branch])
    )
    assert found


def test_enumerate_budget_exhaustion(ctx4):
    stream = enumerate_embeddings(4, budget_secs=0.0, ctx=ctx4)
    with pytest.raises(BudgetExceeded):
        for _ in stream:
            pass


def test_wall_ms_covers_certification_only(ctx4, monkeypatch):
    import codegraph.verify as verify

    real = verify.build_context

    def slow_build_context(*args, **kwargs):
        time.sleep(0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "build_context", slow_build_context)
    cert = certify_theorem(4, budget_secs=0.0)
    assert cert["complete"] is False
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
    a = GraphAutomorphism(4, 2, identity_automorphism(4).rows, dual=True)
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
    assert set(pm.assignments) == {
        ctx4.lines[lid] for lid in ctx4.gprime_lids
    }
    assert all(
        p == frame.Q or len(line_support(p)) >= 3 for p in pm.assignments
    )
    # images of each star lie inside the star of the assigned line
    for lid in ctx4.gprime_lids:
        p = ctx4.lines[lid]
        g1p = pm.assignments[p]
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


def test_h_is_not_any_restriction(ctx4):
    assert ctx4.h_gid not in ctx4.restr_index
    assert not ctx4.restr_index.keys() & ctx4.exc_index.keys()


def test_constructive_route_agrees_with_tables(ctx4):
    ctx_plain = build_context(4, with_tables=False)
    count = 0
    for e in itertools.islice(enumerate_embeddings(4, ctx=ctx4), 400):
        kind_t, widx, _ = _classify_ids(ctx4, e.images)
        kind_c, _, witness = _classify_ids(ctx_plain, e.images)
        assert kind_t == kind_c
        if widx is not None and witness is not None:
            table_witness = ctx4.witness_automorphism(widx)
            assert table_witness == witness
        count += 1
    assert count == 400


def test_certify_small_budget_is_partial():
    cert = certify_theorem(4, budget_secs=0.0)
    assert cert["complete"] is False
    assert cert["unclassified"] == 0


def test_certify_rejects_unsupported_n():
    with pytest.raises(ParameterError):
        certify_theorem(6)
    with pytest.raises(ParameterError):
        certify_theorem(5)  # needs an explicit budget
    with pytest.raises(ParameterError):
        next(iter(enumerate_embeddings(5)))


def test_n5_constructive_classification():
    ctx = build_context(5, with_tables=False)
    assert ctx.restr_index is None
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
    cert = certify_theorem(5, budget_secs=349 / 1000)
    assert cert["n"] == 5
    assert cert["complete"] is False
    assert cert["unclassified"] == 0
    assert all(v["fail"] == 0 for v in cert["lemma_chain"].values())


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


def test_certificate_invariant_across_jobs_and_orders(certificate4):
    base = dict(certificate4)
    base.pop("wall_ms")
    with_jobs = certify_theorem(4, jobs=2)
    with_jobs.pop("wall_ms")
    assert with_jobs == base
    other_order = certify_theorem(4, order_variant=1)
    other_order.pop("wall_ms")
    assert other_order == base


# -- the invariant-chain memo inside the certification loop -----------------


def run_root_branch(ctx):
    """The certification loop on root branch 0 (2304 embeddings at n = 4)."""
    return verify._run_branches(ctx, ctx.search_order, [0], None, None)


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
    total = res["counts"]["total"]
    assert total == 2304 and res["soundness_failures"] == 0
    for key in LEMMA_KEYS:
        assert res["tallies"][key]["pass"] + res["tallies"][key]["fail"] == total
        assert res["tallies"][key]["fail"] == 0


def test_memo_counts_a_cached_failure_once_per_embedding(ctx4, monkeypatch):
    # fault: the chain rejects the collapse map's endgame and reports the
    # wrong kind, so the table and endgame routes disagree on every
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
    exceptional = res["counts"]["exceptional"]
    assert exceptional == 1152
    assert res["tallies"]["endgame"]["fail"] == exceptional
    assert res["route_mismatches"] == exceptional


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
        verify, "_normalize_ids", lambda ctx, images: (fault(ctx, images), identity_cols, False)
    )
    calls = counting_lemma_chain(monkeypatch)
    res = run_root_branch(ctx4)
    stream = [
        fault(ctx4, e.images) for e in enumerate_embeddings(4, ctx=ctx4, first_vertices=[0])
    ]
    frame_maps = {ctx4.gid, ctx4.h_gid}
    others = sum(1 for fp in stream if fp not in frame_maps)
    assert others > 0
    assert len(calls) == others + len(frame_maps & set(stream))
    assert res["tallies"]["endgame"]["fail"] == others


def test_witness_dump_of_a_complete_run(tmp_path):
    dump = tmp_path / "witnesses.txt"
    cert = certify_theorem(4, witness_dump=str(dump))
    assert cert["complete"] is True
    lines = [line.split(" ", 2) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 80640
    assert [int(parts[0]) for parts in lines] == list(range(80640))
    verdicts = [parts[1] for parts in lines]
    assert verdicts.count("extendable") == cert["extendable"]
    assert verdicts.count("exceptional") == cert["exceptional"]

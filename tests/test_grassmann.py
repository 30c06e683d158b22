import itertools
import random
import tracemalloc

import pytest

from codegraph import fqlinalg, grassmann
from codegraph.errors import Falsified, ParameterError
from codegraph.fqlinalg import (
    enumerate_subspaces,
    gaussian_binomial,
    rref,
    standard_basis_vector,
)
from codegraph.grassmann import (
    KIND_FULL,
    KIND_NONDEGENERATE,
    CodeGraph,
    SearchPlan,
    backtrack,
    build_graph,
    connected_components,
    degenerate_union_count,
    graph_export_text,
    greedy_order,
    is_adjacent,
    is_nondegenerate,
    iter_edges,
    mask_ids,
    vertex_count,
    vertex_sidecar_text,
)


def test_is_adjacent_examples():
    q_p1 = rref([(1, 1, 1, 1), (0, 1, 1, 1)])
    q_p2 = rref([(1, 1, 1, 1), (1, 0, 1, 1)])
    assert is_adjacent(q_p1, q_p2)  # both contain the all-ones line
    x = rref([(0, 1, 1, 1), (1, 1, 1, 0)])
    xc = rref([(0, 1, 1, 1), (0, 0, 0, 1)])
    assert is_adjacent(x, xc)
    e12 = rref([(1, 0, 0, 0), (0, 1, 0, 0)])
    e34 = rref([(0, 0, 1, 0), (0, 0, 0, 1)])
    assert not is_adjacent(e12, e34)
    assert not is_adjacent(e12, e12)  # irreflexive
    with pytest.raises(ValueError):
        is_adjacent(e12, rref([(1, 0, 0)]))


def test_is_nondegenerate_examples():
    assert is_nondegenerate(rref([(1, 1, 1, 1), (0, 1, 1, 1)]))
    assert not is_nondegenerate(rref([(1, 0, 0, 0), (0, 1, 0, 0)]))
    # the collapse image of the first C-class code vanishes in coordinate 1
    assert not is_nondegenerate(rref([(0, 1, 1, 1), (0, 0, 0, 1)]))


def test_vertex_counts():
    assert build_graph(4, 2, 2, KIND_NONDEGENERATE).nv == 13
    assert build_graph(4, 2, 2, KIND_FULL).nv == 35
    assert build_graph(5, 2, 2, KIND_NONDEGENERATE).nv == 40


def test_nondegenerate_count_vs_inclusion_exclusion():
    # direct filtering vs the inclusion-exclusion over coordinate hyperplanes
    from math import comb

    for n in range(4, 8):
        direct = degenerate_union_count(n, 2, 2)
        incl_excl = sum(
            (-1) ** (j + 1) * comb(n, j) * gaussian_binomial(n - j, 2, 2)
            for j in range(1, n - 1)  # deeper intersections hold no planes
        )
        assert direct == incl_excl
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        assert g.nv == gaussian_binomial(n, 2, 2) - direct


# every (n, k, q) of a Grassmann graph inside the ambient cap with at most
# 20k vertices: 146 shapes, q = 2 up to n = 14 and q = 251 at n = 2
SHAPES_20K = [
    (n, k, q)
    for q in range(2, fqlinalg.MAX_AMBIENT)
    if fqlinalg.is_prime(q)
    for n in range(2, fqlinalg.MAX_AMBIENT.bit_length())
    if q**n <= fqlinalg.MAX_AMBIENT
    for k in range(1, n)
    if gaussian_binomial(n, k, q) <= 20_000
]


def test_vertex_count_matches_the_listing_on_every_shape_of_at_most_20k_subspaces():
    # build_graph keeps the listed subspaces that is_nondegenerate passes;
    # the uncached listing leaves nothing behind.  Building every shape
    # would take minutes (G(7,6)_3 alone takes about 30 s), so only those
    # of at most 2000 vertices and k <= n - 2 are built.
    assert len(SHAPES_20K) == 146
    for n, k, q in SHAPES_20K:
        listed = fqlinalg._enumerate_subspaces.__wrapped__(n, k, q)
        assert vertex_count(n, k, q) == len(listed)
        assert vertex_count(n, k, q, KIND_NONDEGENERATE) == sum(map(is_nondegenerate, listed)), (n, k, q)
        if len(listed) <= 2000 and k <= n - 2:
            for kind in (KIND_FULL, KIND_NONDEGENERATE):
                assert grassmann._build_graph.__wrapped__(n, k, q, kind).nv == vertex_count(n, k, q, kind)


def test_a_listing_that_disagrees_with_the_count_is_falsified(monkeypatch):
    # fault: the filter keeps a degenerate plane, so the code graph lists
    # one vertex more than its count
    real = grassmann.is_nondegenerate
    extra = rref([(1, 0, 0, 0), (0, 1, 0, 0)])
    monkeypatch.setattr(grassmann, "is_nondegenerate", lambda x: x == extra or real(x))
    with pytest.raises(Falsified, match="lists 14 vertices, counted 13"):
        grassmann._build_graph.__wrapped__(4, 2, 2, KIND_NONDEGENERATE)


def test_listing_and_building_g72_keep_one_copy_of_each_basis():
    # a subspace holds its rows and their packed supports, both built at
    # construction; lazily cached packed and flattened copies of every
    # basis kept 2.97 MiB here, against 2.02 MiB without them
    fqlinalg._enumerate_subspaces.cache_clear()
    grassmann._build_graph.cache_clear()
    tracemalloc.start()
    try:
        listed = enumerate_subspaces(7, 2, 2)
        g = build_graph(7, 2, 2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.vertices == listed
    assert retained < 2.5 * 2**20, retained


def test_adjacency_matches_pairwise_oracle():
    # the star-built rows agree with the rank definition applied pairwise,
    # including the complete regime (k = 1 and k = n - 1)
    shapes = [(4, 2, 2), (5, 2, 2), (4, 2, 3), (5, 3, 2), (4, 1, 2), (4, 3, 2), (6, 3, 2)]
    for (n, k, q), kind in itertools.product(shapes, (KIND_FULL, KIND_NONDEGENERATE)):
        g = build_graph(n, k, q, kind)
        expected = [0] * g.nv
        for i, j in itertools.combinations(range(g.nv), 2):
            if is_adjacent(g.vertices[i], g.vertices[j]):
                expected[i] |= 1 << j
                expected[j] |= 1 << i
        assert g.adj == tuple(expected)
        assert g.edge_count == sum(row.bit_count() for row in expected) // 2


@pytest.mark.parametrize("kernel", ["rref_bits", "rref_modq"])
@pytest.mark.parametrize("fault", ["merged", "split"])
def test_degree_check_catches_broken_hyperplane_keys(monkeypatch, kernel, fault):
    # merged keys fuse distinct stars (extra edges), split keys break one
    # star into many (lost edges); the full-graph degree check must refuse both
    fresh = itertools.count()
    if fault == "merged":
        broken = lambda rows, *args: tuple(rows)[:-1]
    else:
        broken = lambda rows, *args: (next(fresh),)
    monkeypatch.setattr(grassmann, kernel, broken)
    n, k, q = (5, 3, 2) if kernel == "rref_bits" else (4, 2, 3)
    with pytest.raises(Falsified):
        grassmann._build_graph.__wrapped__(n, k, q, KIND_FULL)


def test_adjacency_symmetric_irreflexive():
    for kind in (KIND_FULL, KIND_NONDEGENERATE):
        g = build_graph(5, 2, 2, kind)
        for i in range(g.nv):
            assert not g.is_edge(i, i)
            for j in mask_ids(g.adj[i]):
                assert g.is_edge(j, i)


def test_degree_formula_full_graphs():
    # degree = q * [k choose k-1]_q * [n-k choose 1]_q, checked directly
    for (n, k, q) in [(4, 2, 2), (5, 2, 2), (5, 3, 2), (6, 2, 2), (6, 3, 2), (4, 2, 3), (7, 2, 2), (8, 2, 2)]:
        g = build_graph(n, k, q, KIND_FULL)
        want = q * gaussian_binomial(k, k - 1, q) * gaussian_binomial(n - k, 1, q)
        assert all(g.degree(i) == want for i in range(g.nv))


def test_connectivity():
    for n in range(4, 9):
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        assert len(connected_components(g)) == 1
    assert len(connected_components(build_graph(4, 2, 2, KIND_FULL))) == 1


def test_components_on_edgeless_graph():
    e12 = rref([(1, 0, 0, 0), (0, 1, 0, 0)])
    e34 = rref([(0, 0, 1, 0), (0, 0, 0, 1)])
    g = CodeGraph(4, 2, 2, KIND_FULL, (e12, e34), (0, 0), 0)
    assert connected_components(g) == [{0}, {1}]


def test_complete_regime_flag():
    g = build_graph(4, 1, 2, KIND_FULL)
    assert g.complete_regime
    assert all(g.degree(i) == g.nv - 1 for i in range(g.nv))
    assert not build_graph(4, 2, 2, KIND_FULL).complete_regime


def test_build_graph_parameter_validation():
    with pytest.raises(ParameterError):
        build_graph(4, 0, 2, KIND_FULL)
    with pytest.raises(ParameterError):
        build_graph(4, 4, 2, KIND_FULL)
    with pytest.raises(ParameterError):
        build_graph(4, 2, 2, "Weird")


class Listed(Exception):
    """Raised by a stand-in for the subspace listing, so a test can see
    how far a build got without building anything."""


def refuse_listing(*args, **kwargs):
    raise Listed


@pytest.mark.parametrize("n, k, q", [(11, 2, 2), (10, 2, 2), (8, 2, 3)])
def test_rows_past_the_byte_cap_are_refused_before_listing(monkeypatch, n, k, q):
    # 57, 3.5 and 94 GiB of rows: refused from the vertex count alone
    assert gaussian_binomial(n, k, q) ** 2 // 8 > grassmann.MAX_ROW_BYTES
    monkeypatch.setattr(grassmann, "enumerate_subspaces", refuse_listing)
    with pytest.raises(ParameterError, match="GiB cap"):
        build_graph(n, k, q, KIND_FULL)


@pytest.mark.parametrize("n, kind", [(9, KIND_FULL), (11, KIND_NONDEGENERATE)])
def test_rows_within_the_byte_cap_reach_the_listing(monkeypatch, n, kind):
    # G(9,2) takes 0.22 GiB of rows; the code graph's rows are checked on
    # its own vertex count, before the listing
    monkeypatch.setattr(grassmann, "enumerate_subspaces", refuse_listing)
    with pytest.raises(Listed):
        build_graph(n, 2, 2, kind)


def test_nondegenerate_vertices_preserve_enumeration_order():
    g = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    filtered = [x for x in enumerate_subspaces(4, 2, 2) if is_nondegenerate(x)]
    assert list(g.vertices) == filtered


def test_export_format():
    g = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    text = graph_export_text(g)
    lines = text.splitlines()
    assert lines[0] == f"4 2 2 NonDegenerate 13 {g.edge_count}"
    assert len(lines) == 1 + g.nv
    decoded = [int(row, 16) for row in lines[1:]]
    assert tuple(decoded) == g.adj
    sidecar = vertex_sidecar_text(g)
    assert sidecar.count("# ") == g.nv
    assert g.vertices[0].to_text() in sidecar


def test_iter_edges_matches_edge_count():
    g = build_graph(5, 2, 2, KIND_NONDEGENERATE)
    edges = list(iter_edges(g))
    assert len(edges) == g.edge_count
    assert all(g.is_edge(i, j) and i < j for i, j in edges)


def test_build_graph_call_forms_share_one_cache_entry():
    g = build_graph(4, 2, 2)
    assert build_graph(4, 2, 2, KIND_FULL) is g
    assert build_graph(4, 2, 2, kind=KIND_FULL) is g
    assert build_graph(n=4, k=2, q=2, kind=KIND_FULL) is g
    code = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    assert build_graph(n=4, k=2, q=2, kind=KIND_NONDEGENERATE) is code


def random_adj(rng: random.Random, nv: int, p: float) -> tuple[int, ...]:
    adj = [0] * nv
    for i, j in itertools.combinations(range(nv), 2):
        if rng.random() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def brute_force_maps(src, tgt, domains, induced):
    """Every injective map, by testing each arrangement of targets."""
    found = set()
    pairs = list(itertools.combinations(range(len(src)), 2))
    for images in itertools.permutations(range(len(tgt)), len(src)):
        if not all((domains[v] >> c) & 1 for v, c in enumerate(images)):
            continue
        ok = True
        for u, w in pairs:
            s_edge = (src[u] >> w) & 1
            t_edge = (tgt[images[u]] >> images[w]) & 1
            if (s_edge and not t_edge) or (induced and t_edge and not s_edge):
                ok = False
                break
        if ok:
            found.add(images)
    return found


def test_backtrack_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        ns = rng.randint(1, 6)
        nt = rng.randint(ns, 7)
        src = random_adj(rng, ns, rng.uniform(0.2, 0.8))
        tgt = random_adj(rng, nt, rng.uniform(0.2, 0.8))
        order = list(range(ns))
        rng.shuffle(order)
        domains = [(1 << nt) - 1] * ns
        domains[rng.randrange(ns)] = rng.getrandbits(nt)
        for induced in (False, True):
            want = brute_force_maps(src, tgt, domains, induced)
            # a dynamic plan is plain only
            for plan_order in (order, None) if not induced else (order,):
                maps = list(backtrack(SearchPlan(src, plan_order, induced), tgt, domains))
                assert len(set(maps)) == len(maps)
                assert set(maps) == want
                if plan_order is not None:
                    # deterministic: lexicographic in the images along the order
                    assert maps == sorted(maps, key=lambda m: [m[v] for v in order])


def reference_backtrack(src_adj, tgt_adj, order, domains, induced=False):
    """The undo-trail kernel that per-depth snapshots replaced: one frame
    per depth, each holding the (vertex, old domain) pairs it narrowed,
    restored before the frame's next candidate; a branch dies when a
    domain that changed has no unused candidate left."""
    nv = len(src_adj)

    def depth_lists(d):
        row = src_adj[order[d]]
        rest = order[d + 1 :]
        near = [w for w in rest if (row >> w) & 1]
        return near, [w for w in rest if not (row >> w) & 1] if induced else []

    lists = [depth_lists(d) for d in range(nv)]
    cand = list(domains)
    mapping = [0] * nv
    # frames: [remaining candidates, used-mask before this level, undo list]
    frames = [[cand[order[0]], 0, None]]
    while frames:
        fr = frames[-1]
        if fr[2] is not None:
            for w, old in fr[2]:
                cand[w] = old
            fr[2] = None
        m = fr[0]
        if not m:
            frames.pop()
            continue
        b = m & -m
        fr[0] = m ^ b
        d = len(frames) - 1
        c = b.bit_length() - 1
        free = ~(fr[1] | b)
        undo = []
        fr[2] = undo
        ok = True
        later, apart = lists[d]
        adj_c = tgt_adj[c]
        for w in later:
            old = cand[w]
            new = old & adj_c
            if new != old:
                cand[w] = new
                undo.append((w, old))
                if not new & free:
                    ok = False
                    break
        if ok and apart:
            adj_c = ~adj_c
            for w in apart:
                old = cand[w]
                new = old & adj_c
                if new != old:
                    cand[w] = new
                    undo.append((w, old))
                    if not new & free:
                        ok = False
                        break
        if not ok:
            continue
        mapping[order[d]] = c
        d += 1
        if d == nv:
            yield tuple(mapping)
            continue
        frames.append([cand[order[d]] & free, ~free, None])


def random_search(rng, ns, nt):
    """A seeded source graph, target graph, order and starting domains,
    one domain narrowed at random."""
    src = random_adj(rng, ns, rng.uniform(0.2, 0.8))
    tgt = random_adj(rng, nt, rng.uniform(0.2, 0.8))
    order = list(range(ns))
    rng.shuffle(order)
    domains = [(1 << nt) - 1] * ns
    domains[rng.randrange(ns)] = rng.getrandbits(nt)
    return src, tgt, order, domains


@pytest.mark.parametrize("ns", range(1, 8))
def test_backtrack_matches_the_reference_kernel(ns):
    # ordered yields equal, in both modes and with narrowed domains; ns = 1
    # and 2 put the inline last level at depth 0 and 1
    rng = random.Random(1000 + ns)
    for _ in range(30):
        src, tgt, order, domains = random_search(rng, ns, rng.randint(ns, 8))
        for induced in (False, True):
            want = list(reference_backtrack(src, tgt, order, domains, induced))
            assert list(backtrack(SearchPlan(src, order, induced), tgt, domains)) == want
            if not induced:
                # the dynamic order yields the same maps, each once, in its own order
                maps = list(backtrack(SearchPlan(src, None), tgt, domains))
                assert len(set(maps)) == len(maps) and set(maps) == set(want)


@pytest.mark.parametrize("ns", range(1, 8))
def test_backtrack_with_an_empty_last_domain_yields_nothing(ns):
    rng = random.Random(2000 + ns)
    for _ in range(10):
        src, tgt, order, domains = random_search(rng, ns, rng.randint(ns, 8))
        domains[order[-1]] = 0
        for induced in (False, True):
            assert list(reference_backtrack(src, tgt, order, domains, induced)) == []
            assert list(backtrack(SearchPlan(src, order, induced), tgt, domains)) == []
        assert list(backtrack(SearchPlan(src, None), tgt, domains)) == []


@pytest.mark.parametrize("order", [(), None], ids=["static", "fail-first"])
def test_backtrack_from_an_empty_source_yields_the_empty_map(order):
    # the only map from no vertices is the empty one, whatever the target
    assert list(backtrack(SearchPlan((), order), (0b10, 0b01), [])) == [()]


class Reads(tuple):
    """An adjacency tuple that logs every row index read from it."""

    def __new__(cls, rows, log):
        self = super().__new__(cls, rows)
        self.log = log
        return self

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


def check_forward_checking(src, tgt, domains, tries):
    """Replay the (vertex, target) tries of a dynamic search.  Vertices on
    a search path are distinct, so a try of a vertex already on the path
    backs up to it.  Every try must respect the path above it, and the
    path's last assignment must have left each of its unplaced
    neighbours a free candidate: a branch dies on a domain with none,
    whatever order the vertices are picked in."""
    path: list[tuple[int, int]] = []
    for v, c in tries:
        while v in dict(path):
            path.pop()
        placed, used = dict(path), {t for _, t in path}

        def narrowed(w):
            dom = domains[w]
            for p, t in placed.items():
                if (src[w] >> p) & 1:
                    dom &= tgt[t]
            return dom & ~sum(1 << t for t in used)

        assert (narrowed(v) >> c) & 1
        if path:
            last = path[-1][0]
            for w in range(len(src)):
                if w not in placed and (src[last] >> w) & 1:
                    assert narrowed(w), (path, w)
        path.append((v, c))


def test_fail_first_keeps_the_forward_checking_contract():
    # the search's tries, read off the rows it asks for: the source row
    # of the vertex it assigns and the target row of its candidate (the
    # last vertex of a path yields without either)
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        src, tgt, _, domains = random_search(rng, rng.randint(2, 7), 8)
        vs, cs = [], []
        maps = list(backtrack(SearchPlan(Reads(src, vs), None), Reads(tgt, cs), domains))
        assert set(maps) == brute_force_maps(src, tgt, domains, False)
        assert len(vs) == len(cs)
        check_forward_checking(src, tgt, domains, zip(vs, cs))
        checked += len(vs)
    assert checked > 1000


def test_fail_first_stream_at_n4_equals_the_static_and_reference_streams():
    code, full = build_graph(4, 2, 2, KIND_NONDEGENERATE), build_graph(4, 2, 2)
    order = greedy_order(code.adj)
    domains = [(1 << full.nv) - 1] * code.nv
    dynamic = list(backtrack(SearchPlan(code.adj, None), full.adj, domains))
    static = set(backtrack(SearchPlan(code.adj, order), full.adj, domains))
    assert len(dynamic) == len(set(dynamic)) == len(static) == 80640
    assert set(dynamic) == static == set(reference_backtrack(code.adj, full.adj, order, domains))


def test_a_plan_reused_across_searches_yields_what_fresh_plans_yield():
    # every search reads the lists the plan built when it was made
    rng = random.Random(3)
    for _ in range(20):
        src, tgt, order, domains = random_search(rng, 6, 8)
        for induced in (False, True):
            plan = SearchPlan(src, order, induced)
            for _ in range(4):
                domains = [dom & rng.getrandbits(8) | (1 << rng.randrange(8)) for dom in domains]
                want = list(reference_backtrack(src, tgt, order, domains, induced))
                assert list(backtrack(plan, tgt, domains)) == want
                assert list(backtrack(SearchPlan(src, order, induced), tgt, domains)) == want


def test_induced_and_plain_plans_never_share_lists():
    rng = random.Random(5)
    differ = 0
    for _ in range(20):
        src, tgt, order, domains = random_search(rng, 5, 7)
        plain, induced = SearchPlan(src, order), SearchPlan(src, order, induced=True)
        found = {}
        # alternate the two plans, so a list they shared would show
        for plan in (plain, induced, plain, induced):
            maps = list(backtrack(plan, tgt, domains))
            assert maps == list(reference_backtrack(src, tgt, order, domains, plan.induced))
            found[plan.induced] = maps
        differ += found[False] != found[True]
        # every depth holds its lists, as offsets past depth d in the order
        for plan in (plain, induced):
            assert len(plan.later) == len(plan.apart) == len(order)
            for d in range(len(order)):
                rest = order[d + 1 :]
                assert [rest[j] for j in plan.later[d]] == [w for w in rest if (src[order[d]] >> w) & 1]
                far = [w for w in rest if not (src[order[d]] >> w) & 1]
                assert [rest[j] for j in plan.apart[d]] == (far if plan.induced else [])
        assert not {id(x) for x in plain.later + plain.apart if x} & {
            id(x) for x in induced.later + induced.apart if x
        }
    assert differ


def test_plan_fields_cannot_be_reassigned():
    # lists built for one order or mode can never serve another
    plan = SearchPlan((0b10, 0b01), [1, 0])
    for name, value in (("order", (0, 1)), ("induced", True), ("src_adj", (0, 0)), ("later", [None] * 2)):
        with pytest.raises(AttributeError):
            setattr(plan, name, value)
    assert plan.order == (1, 0) and plan.induced is False


def test_a_dynamic_plan_builds_no_lists():
    # the search picks its order as it goes, so there are no depths to build
    plan = SearchPlan((0b110, 0b101, 0b011), None)
    assert plan.order is None and plan.later == plan.apart == ()


def test_a_dynamic_plan_refuses_induced_mode():
    # the fail-first search narrows neighbours only, so an induced
    # dynamic plan would silently yield non-induced maps
    with pytest.raises(ValueError, match="plain maps only"):
        SearchPlan((0b110, 0b101, 0b011), None, induced=True)


def test_mask_ids_lists_the_set_bits_in_increasing_order():
    def want(m):
        return [i for i in range(m.bit_length()) if m >> i & 1]

    rng = random.Random(11)
    masks = [0] + [1 << i for i in range(700)] + [rng.getrandbits(rng.randint(1, 700)) for _ in range(200)]
    for m in masks:
        assert mask_ids(m) == want(m)


def test_greedy_order_places_connected_vertices_first():
    g = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    order = greedy_order(g.adj)
    assert sorted(order) == list(range(g.nv))
    placed = 1 << order[0]
    for v in order[1:]:
        assert g.adj[v] & placed  # the code graph is connected
        placed |= 1 << v


def quadratic_greedy_order(adj: tuple[int, ...]) -> list[int]:
    """Reference: a max over every remaining vertex per placement."""
    placed: list[int] = []
    placed_mask = 0
    remaining = set(range(len(adj)))
    while remaining:
        best = max(remaining, key=lambda v: ((adj[v] & placed_mask).bit_count(), -v))
        placed.append(best)
        placed_mask |= 1 << best
        remaining.discard(best)
    return placed


@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in (4, 5, 6, 7) for kind in (KIND_NONDEGENERATE, KIND_FULL)]
    + [(8, KIND_NONDEGENERATE)],
)
def test_greedy_order_matches_quadratic_reference(n, kind):
    adj = build_graph(n, 2, 2, kind).adj
    assert greedy_order(adj) == quadratic_greedy_order(adj)


def test_greedy_order_ties_on_random_graphs():
    # sparse and disconnected graphs put many vertices on equal counts
    rng = random.Random(7)
    for _ in range(60):
        nv = rng.randint(1, 40)
        adj = random_adj(rng, nv, rng.uniform(0.0, 0.5))
        assert greedy_order(adj) == quadratic_greedy_order(adj)

import itertools
import random

import pytest

from codegraph.errors import ParameterError
from codegraph.autgroup import (
    GraphAutomorphism,
    apply,
    code_graph_aut_group,
    gl2_cols_stream,
    graph_automorphisms,
    grassmann_aut_group,
    identity_automorphism,
    order_gl,
    matrix_inline_text,
    orthocomplement,
    vertex_permutation,
)
from codegraph.fqlinalg import (
    coordinate_hyperplane,
    enumerate_subspaces,
    nullspace,
    rref,
    standard_basis_vector,
)
from codegraph.grassmann import KIND_FULL, KIND_NONDEGENERATE, CodeGraph, build_graph, is_adjacent, iter_edges, mask_ids


def random_automorphism(rng: random.Random, n: int) -> GraphAutomorphism:
    while True:
        cols = tuple(rng.randrange(1 << n) for _ in range(n))
        try:
            return GraphAutomorphism(n, cols)
        except ParameterError:
            continue


def chain_elements(nv: int, transversals: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Every product u_1 u_2 ... of one element from each transversal of
    ``graph_automorphisms``, in no fixed order."""
    perms = [tuple(range(nv))]
    for level in transversals:
        perms = [tuple(p[x] for x in u) for p in perms for u in level]
    return perms


def test_apply_identity_and_dual():
    ident = identity_automorphism(4)
    e12 = rref([(1, 0, 0, 0), (0, 1, 0, 0)])
    assert apply(ident, e12) == e12
    dual = GraphAutomorphism(4, ident.cols, dual=True)
    assert apply(dual, e12) == rref([(0, 0, 1, 0), (0, 0, 0, 1)])


def test_apply_coordinate_swap():
    swap = GraphAutomorphism(4, (0b0010, 0b0001, 0b0100, 0b1000))
    q_p1 = rref([(1, 1, 1, 1), (0, 1, 1, 1)])
    q_p2 = rref([(1, 1, 1, 1), (1, 0, 1, 1)])
    assert apply(swap, q_p1) == q_p2


def test_dual_requires_doubled_dimension():
    dual = GraphAutomorphism(4, identity_automorphism(4).cols, dual=True)
    line = rref([(1, 0, 0, 0)])
    with pytest.raises(ParameterError):
        apply(dual, line)


def test_apply_refuses_other_spaces():
    ident = identity_automorphism(4)
    for x in (rref([(1, 0, 0, 0, 0)]), rref([(1, 2, 0, 0)], 4, 3)):
        with pytest.raises(ParameterError):
            apply(ident, x)


def test_generated_groups_refuse_k_outside_1_to_n_minus_1():
    for group in (grassmann_aut_group, code_graph_aut_group):
        for k in (0, 4):
            with pytest.raises(ParameterError, match=f"need 1 <= k <= n-1, got k={k}, n=4"):
                group(4, k, 2)


def test_singular_matrix_rejected():
    # singular, too few or too many columns, a column wider than n bits,
    # a negative column
    for n, cols, message in (
        (2, (0b11, 0b11), "singular"),
        (3, (0b001, 0b010, 0b011), "singular"),
        (5, identity_automorphism(4).cols, "columns"),
        (4, identity_automorphism(5).cols, "columns"),
        (2, (0b01, 0b110), "columns"),
        (2, (0b01, -2), "columns"),
    ):
        with pytest.raises(ParameterError, match=message):
            GraphAutomorphism(n, cols)


def test_rows_and_text_read_bit_i_of_column_j_as_entry_i_j():
    # a non-symmetric matrix: rows (1,1,0), (0,1,0), (0,1,1)
    a = GraphAutomorphism(3, (0b001, 0b111, 0b100))
    want = ((1, 1, 0), (0, 1, 0), (0, 1, 1))
    assert a.rows == want
    assert a.rows != tuple(zip(*want))
    assert matrix_inline_text(a.cols, False) == "110,010,011 dual=0"
    assert matrix_inline_text(a.cols, True) == "110,010,011 dual=1"
    # the transpose is another matrix, with the transposed text
    t = GraphAutomorphism(3, (0b011, 0b010, 0b110))
    assert t.rows == tuple(zip(*want))
    assert matrix_inline_text(t.cols, False) == "100,111,001 dual=0"
    # and the action reads the same convention: e_2 goes to column 2
    assert apply(a, rref([(0, 1, 0)])) == rref([(1, 1, 1)])
    with pytest.raises(AttributeError):
        a.rows = want


def test_orthocomplement_examples():
    e1 = rref([standard_basis_vector(1, 4)])
    assert orthocomplement(e1) == coordinate_hyperplane(1, 4)
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 9)
        k = rng.randrange(0, n + 1)
        rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        x = rref(rows, n, 2)
        assert orthocomplement(orthocomplement(x)) == x
        assert orthocomplement(x).k == n - x.k


def test_orthocomplement_adjacency_equivalence_exhaustive():
    planes = enumerate_subspaces(4, 2, 2)
    comp = {x: orthocomplement(x) for x in planes}
    for i, x in enumerate(planes):
        for y in planes[i + 1 :]:
            assert is_adjacent(x, y) == is_adjacent(comp[x], comp[y])


def test_group_orders():
    assert order_gl(4, 2) == 20160
    assert grassmann_aut_group(4, 2, 2).order == 40320
    assert grassmann_aut_group(5, 2, 2).order == 9999360
    assert grassmann_aut_group(5, 3, 2).order == 9999360
    assert code_graph_aut_group(4, 2, 2).order == 24
    assert code_graph_aut_group(5, 2, 2).order == 120
    assert code_graph_aut_group(4, 2, 3).order == 192


def test_gl2_stream_is_complete_and_duplicate_free():
    seen = set(gl2_cols_stream(3))
    assert len(seen) == order_gl(3, 2)


def test_identity_fixes_every_vertex():
    g = build_graph(4, 2, 2, KIND_FULL)
    assert vertex_permutation(identity_automorphism(4), g) == tuple(range(g.nv))


def test_direct_search_code_graphs():
    # the code graph group is the coordinate-permutation group at these sizes
    count4, _ = graph_automorphisms(build_graph(4, 2, 2, KIND_NONDEGENERATE))
    count5, _ = graph_automorphisms(build_graph(5, 2, 2, KIND_NONDEGENERATE))
    assert count4 == 24
    assert count5 == 120


@pytest.mark.parametrize("n", [4, 5])
def test_direct_search_matches_networkx(n):
    # an outside oracle: the same permutation set, not just the count
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
    count, transversals = graph_automorphisms(g)
    perms = chain_elements(g.nv, transversals)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.nv))
    nxg.add_edges_from(iter_edges(g))
    expected = {
        tuple(m[v] for v in range(g.nv)) for m in GraphMatcher(nxg, nxg).isomorphisms_iter()
    }
    assert count == len(perms) == len(set(perms)) == len(expected)
    assert set(perms) == expected


def test_generated_equals_direct_on_full_graph(ctx4):
    # the generated permutations are exactly the automorphisms the blind
    # search finds, so each one preserves adjacency and nothing is missing
    g = build_graph(4, 2, 2, KIND_FULL)
    direct_count, transversals = graph_automorphisms(g)
    perms = chain_elements(g.nv, transversals)
    assert direct_count == len(perms) == len(set(perms)) == 40320
    direct = {bytes(p) for p in perms}
    generated = set()
    orth = ctx4.orth_perm
    for cols in gl2_cols_stream(4):
        p = ctx4.map_images(cols, range(ctx4.full.nv))
        generated.add(bytes(p))
        generated.add(bytes(orth[t] for t in p))
    assert generated == direct


@pytest.mark.parametrize(
    "n, k, q, kind",
    [(5, 2, 2, KIND_FULL), (4, 2, 3, KIND_FULL), (5, 3, 2, KIND_FULL), (6, 2, 2, KIND_NONDEGENERATE)],
)
def test_direct_count_equals_generated_order_past_n4(n, k, q, kind):
    # orders no element-by-element search could reach: 9,999,360 for
    # G(5,2) and G(5,3), 24,261,120 for G(4,2)_3 where the
    # orthocomplement doubles the group, 720 for the code graph of n = 6
    handle = (grassmann_aut_group if kind == KIND_FULL else code_graph_aut_group)(n, k, q)
    count, _ = graph_automorphisms(build_graph(n, k, q, kind))
    assert count == handle.order
    if kind == KIND_NONDEGENERATE:
        assert count == 720


def graph_of(adj: tuple[int, ...]) -> CodeGraph:
    """A bare graph for the automorphism search, which reads only adj."""
    nv = len(adj)
    return CodeGraph(nv, 1, 2, "test", tuple(range(nv)), adj, sum(r.bit_count() for r in adj) // 2)


def adj_of(nv: int, edges) -> tuple[int, ...]:
    adj = [0] * nv
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def brute_force_automorphisms(adj: tuple[int, ...]) -> set[tuple[int, ...]]:
    nv = len(adj)
    pairs = list(itertools.combinations(range(nv), 2))
    return {
        p
        for p in itertools.permutations(range(nv))
        if all(((adj[i] >> j) & 1) == ((adj[p[i]] >> p[j]) & 1) for i, j in pairs)
    }


def chain_test_graphs() -> list[tuple[int, ...]]:
    """Edgeless, complete, cyclic and disconnected graphs, whose
    stabilizers stay non-trivial deep into the chain, then seeded
    random graphs up to 60 in all."""
    graphs = [adj_of(nv, []) for nv in (1, 2, 5, 7)]
    graphs += [adj_of(nv, itertools.combinations(range(nv), 2)) for nv in (2, 4, 7)]
    graphs += [adj_of(nv, [(i, (i + 1) % nv) for i in range(nv)]) for nv in (3, 4, 5, 6, 7)]
    graphs.append(adj_of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))  # two triangles
    graphs.append(adj_of(7, [(0, 1), (2, 3), (4, 5)]))  # a matching and a lone vertex
    graphs.append(adj_of(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4)]))  # path and triangle
    rng = random.Random(31)
    while len(graphs) < 60:
        nv = rng.randint(1, 7)
        p = rng.uniform(0.1, 0.9)
        graphs.append(adj_of(nv, [e for e in itertools.combinations(range(nv), 2) if rng.random() < p]))
    return graphs


def test_chain_searches_share_one_plan(plan_builds):
    # every orbit search of the chain reads one plan's lists
    g = build_graph(5, 2, 2)
    assert graph_automorphisms(g)[0] == 9999360
    assert len(plan_builds.plans) == 1
    assert plan_builds.searches > 1


def test_stabilizer_chain_matches_brute_force():
    for adj in chain_test_graphs():
        count, transversals = graph_automorphisms(graph_of(adj))
        perms = chain_elements(len(adj), transversals)
        assert count == len(perms) == len(set(perms)), adj
        assert set(perms) == brute_force_automorphisms(adj), adj


def test_alternative_symmetric_form_generates_the_same_group(ctx4):
    # swapping the pairing does not change the generated group; the
    # complement under the symmetric form F is the kernel of the rows F r
    g = build_graph(4, 2, 2, KIND_FULL)
    form = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

    def complement_under_form(x):
        rows = [tuple(sum(f * c for f, c in zip(row, r)) % 2 for row in form) for r in x.rows]
        return nullspace(rows, 4, 2)

    orth_std = ctx4.orth_perm
    orth_alt = tuple(g.index[complement_under_form(x)] for x in g.vertices)
    assert orth_alt != orth_std
    std_duals = set()
    alt_duals = set()
    for cols in gl2_cols_stream(4):
        p = ctx4.map_images(cols, range(ctx4.full.nv))
        std_duals.add(bytes(orth_std[t] for t in p))
        alt_duals.add(bytes(orth_alt[t] for t in p))
    assert std_duals == alt_duals


def test_adjacency_preserved_sampled_n5():
    g = build_graph(5, 2, 2, KIND_FULL)
    rng = random.Random(11)
    edges = [(i, j) for i in range(g.nv) for j in mask_ids(g.adj[i]) if i < j]
    for _ in range(25):
        a = random_automorphism(rng, 5)
        p = vertex_permutation(a, g)
        assert all((g.adj[p[i]] >> p[j]) & 1 for i, j in edges)


def test_code_graph_direct_search_matches_monomial_count_q3():
    g = build_graph(4, 2, 3, KIND_NONDEGENERATE)
    count, _ = graph_automorphisms(g)
    assert count == code_graph_aut_group(4, 2, 3).order



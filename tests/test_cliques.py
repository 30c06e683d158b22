import itertools
from functools import reduce

import pytest

from codegraph.cliques import (
    CliqueClass,
    classify_clique,
    enumerate_maximal_cliques,
    maximal_clique_masks,
    star,
    star_criterion,
    top,
)
from codegraph.fqlinalg import (
    enumerate_subspaces,
    full_space,
    intersect,
    rref,
    standard_basis_vector,
    subspace_sum,
    zero_subspace,
)
from codegraph.grassmann import KIND_FULL, KIND_NONDEGENERATE, build_graph, is_nondegenerate, iter_edges
from codegraph.hmap import p_copoint, p_point, special_frame


def naive_maximal_cliques(adj: tuple[int, ...]) -> set[frozenset[int]]:
    """Oracle: grow every clique vertex-by-vertex, no pivoting, and keep
    the ones no vertex extends."""
    nv = len(adj)
    cliques = set()

    def grow(members: frozenset[int], candidates: set[int]) -> None:
        extended = False
        for v in sorted(candidates):
            if all((adj[v] >> u) & 1 for u in members):
                extended = True
                grow(members | {v}, {w for w in candidates if w > v})
        if not extended:
            if all(
                not all((adj[w] >> u) & 1 for u in members)
                for w in range(nv)
                if w not in members
            ):
                cliques.add(members)

    grow(frozenset(), set(range(nv)))
    return cliques


def reference_classify(g, vids: frozenset[int]) -> CliqueClass:
    """Oracle: the full-vertex scan.  The star (top) is recorded when the
    vertices of g containing the members' intersection (inside their
    sum) are exactly vids.  The maximality of vids on the code graph,
    or of its non-degenerate members from the full graph, is found by
    testing every outside code vertex."""
    members = [g.vertices[v] for v in sorted(vids)]
    center = reduce(intersect, members)
    roof = reduce(subspace_sum, members)
    star_center = top_roof = None
    if center.k == g.k - 1 and {i for i, x in enumerate(g.vertices) if x.contains(center)} == set(vids):
        star_center = center
    if roof.k == g.k + 1 and {i for i, x in enumerate(g.vertices) if roof.contains(x)} == set(vids):
        top_roof = roof
    code = build_graph(g.n, g.k, g.q, KIND_NONDEGENERATE)
    cset = {code.index[x] for x in members if is_nondegenerate(x)}
    maximal_in_code = (
        bool(cset)
        and all(code.is_edge(u, v) for u, v in itertools.combinations(cset, 2))
        and not any(all(code.is_edge(w, u) for u in cset) for w in range(code.nv) if w not in cset)
    )
    return CliqueClass(
        vertices=frozenset(vids),
        star_center=star_center,
        top_roof=top_roof,
        maximal_in_code_graph=maximal_in_code,
        is_maximal_star=star_center is not None and is_nondegenerate(star_center),
    )


def test_star_of_q_restricted_is_the_a_class(example1_classes):
    frame = special_frame(4)
    got = star(frame.Q, restrict=True)
    assert got == set(example1_classes["A"])
    assert len(got) == 7


def test_star_sizes_general_n():
    # brute-force filter oracle for the restricted star of the all-ones line
    for n in (5, 6):
        frame = special_frame(n)
        got = star(frame.Q, restrict=True)
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        oracle = {x for x in g.vertices if x.contains(frame.Q)}
        assert got == oracle
        assert len(got) == 2 ** (n - 1) - 1


def test_star_unrestricted_line_count():
    got = star(rref([standard_basis_vector(1, 4)]), restrict=False)
    assert len(got) == 7  # lines of the 3-dimensional quotient


def test_top_examples():
    roof = rref([(1, 1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    got = top(roof, restrict=True)
    expected = {
        rref([(1, 1, 1, 1), (0, 1, 1, 1)]),  # Q + P^1
        rref([(1, 1, 1, 1), (1, 0, 1, 1)]),  # Q + P^2
        rref([(1, 1, 1, 1), (1, 1, 0, 0)]),  # Q + P_{1,2}
        rref([(0, 1, 1, 1), (1, 0, 1, 1)]),  # P^1 + P^2
    }
    assert got == expected
    assert len(top(roof, restrict=False)) == 7
    buried = rref([standard_basis_vector(j, 4) for j in (2, 3, 4)])
    assert top(buried, restrict=True) == set()


def test_full_grassmann_maximal_cliques_all_star_or_top():
    for n in (4, 5):
        g = build_graph(n, 2, 2, KIND_FULL)
        found = enumerate_maximal_cliques(g)
        assert all(c.verdict in ("star", "top") for c in found)
        n_lines = len(enumerate_subspaces(n, 1, 2))
        n_roofs = len(enumerate_subspaces(n, 3, 2))
        assert sum(1 for c in found if c.verdict == "star") == n_lines
        assert sum(1 for c in found if c.verdict == "top") == n_roofs
        if n == 4:
            assert all(c.size == 7 for c in found)


def test_bron_kerbosch_against_naive_oracle():
    for (n, k, q, kind) in [
        (4, 2, 2, KIND_FULL),
        (4, 2, 2, KIND_NONDEGENERATE),
        (5, 2, 2, KIND_NONDEGENERATE),
    ]:
        g = build_graph(n, k, q, kind)
        fast = {
            frozenset(i for i in range(g.nv) if (m >> i) & 1)
            for m in maximal_clique_masks(g.adj)
        }
        assert fast == naive_maximal_cliques(g.adj)


@pytest.mark.parametrize("n, kind", [(5, KIND_FULL), (6, KIND_NONDEGENERATE)])
def test_bron_kerbosch_against_networkx(n, kind):
    nx = pytest.importorskip("networkx")
    g = build_graph(n, 2, 2, kind)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.nv))
    nxg.add_edges_from(iter_edges(g))
    masks = maximal_clique_masks(g.adj)
    assert len(set(masks)) == len(masks)
    fast = {frozenset(i for i in range(g.nv) if (m >> i) & 1) for m in masks}
    assert fast == {frozenset(c) for c in nx.find_cliques(nxg)}


def test_unique_maximal_star():
    for n in (4, 5):
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        frame = special_frame(n)
        found = enumerate_maximal_cliques(g)
        maximal_stars = [c for c in found if c.is_maximal_star]
        assert len(maximal_stars) == 1
        assert maximal_stars[0].star_center == frame.Q


def test_never_simultaneously_star_and_top():
    for n in (4, 5):
        for kind in (KIND_FULL, KIND_NONDEGENERATE):
            g = build_graph(n, 2, 2, kind)
            assert all(
                c.verdict != "star+top" for c in enumerate_maximal_cliques(g)
            )


def test_star_criterion_examples():
    assert star_criterion(p_point({1, 2}, 4)) is False
    assert star_criterion(p_point({1, 2, 3}, 4)) is True
    for x in enumerate_subspaces(5, 1, 3):
        assert star_criterion(x) is True


def test_star_criterion_matches_enumerated_maximality():
    for (n, k, q) in [(4, 2, 2), (5, 2, 2), (5, 3, 2), (4, 2, 3)]:
        g = build_graph(n, k, q, KIND_NONDEGENERATE)
        clique_sets = {c.vertices for c in enumerate_maximal_cliques(g)}
        for x in enumerate_subspaces(n, k - 1, q):
            sc = star(x, restrict=True)
            vids = frozenset(g.index[s] for s in sc)
            predicted = star_criterion(x)
            assert predicted == (bool(vids) and vids in clique_sets), x.inline_text()


def test_example3_support_reading():
    # the criterion agrees with "all-ones, or literal support of size >= 3";
    # the complement-support reading would wrongly also bound the co-support
    for n in (4, 5):
        frame = special_frame(n)
        for p in enumerate_subspaces(n, 1, 2):
            support = sum(p.rows[0])
            assert star_criterion(p) == (p == frame.Q or support >= 3)
        # a line with co-support 1 still passes, so only the literal reading fits
        assert star_criterion(p_copoint({1}, n)) is True


def test_maximal_in_code_graph_flag():
    g = build_graph(4, 2, 2, KIND_FULL)
    found = enumerate_maximal_cliques(g)
    code = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    code_sets = {
        c.vertices for c in enumerate_maximal_cliques(code)
    }
    for c in found:
        members = [g.vertices[v] for v in c.vertices]
        from codegraph.grassmann import is_nondegenerate

        restricted = frozenset(
            code.index[x] for x in members if is_nondegenerate(x)
        )
        assert c.maximal_in_code_graph == (bool(restricted) and restricted in code_sets)


def test_maximal_in_code_graph_flag_on_the_code_graph():
    # the flag is tested on the code graph too, not assumed
    g = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    family = frozenset(g.index[x] for x in star(special_frame(4).Q, restrict=True))
    assert classify_clique(g, family).maximal_in_code_graph
    # a set that is not a maximal clique of g is refused, not classified
    for v in family:
        with pytest.raises(ValueError, match="not a maximal clique"):
            classify_clique(g, family - {v})
    u, v = next((u, v) for u, v in itertools.combinations(range(g.nv), 2) if not g.is_edge(u, v))
    with pytest.raises(ValueError, match="not a maximal clique"):
        classify_clique(g, frozenset({u, v}))


FULL_SCAN_GRAPHS = [
    (n, k, q, kind)
    for (n, k, q) in [(4, 2, 2), (5, 3, 2), (4, 2, 3), (2, 1, 2), (2, 1, 3), (3, 1, 3), (4, 1, 2), (4, 3, 2)]
    for kind in (KIND_FULL, KIND_NONDEGENERATE)
] + [(6, 2, 2, KIND_NONDEGENERATE)]


@pytest.mark.parametrize("n, k, q, kind", FULL_SCAN_GRAPHS)
def test_maximal_cliques_against_full_scan(n, k, q, kind):
    # the complete graphs (k = 1 or n - 1) reach a one-member clique (the
    # code graph of (2,1,2)), a zero meet, a whole-space join and "star+top"
    g = build_graph(n, k, q, kind)
    found = enumerate_maximal_cliques(g)
    assert found == [reference_classify(g, c.vertices) for c in found]


@pytest.mark.parametrize(
    "call, x, message",
    [
        pytest.param(star, full_space(4), "star of the full space is empty", id="star"),
        pytest.param(top, zero_subspace(4), "top of the zero space is empty", id="top"),
    ],
)
def test_empty_families_are_refused(call, x, message):
    with pytest.raises(ValueError, match=message):
        call(x)

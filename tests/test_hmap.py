import itertools

import pytest

from codegraph.errors import ParameterError
from codegraph.fqlinalg import enumerate_subspaces, rref, subspace_sum, intersect
from codegraph.grassmann import (
    KIND_NONDEGENERATE,
    build_graph,
    is_nondegenerate,
)
from codegraph.hmap import (
    abc_partition,
    complement_code,
    h_map,
    in_c_class,
    line_support,
    p_copoint,
    p_point,
    projective_morphism,
    special_frame,
    verify_h,
)


def test_frame_invariants():
    for n in range(4, 7):
        frame = special_frame(n)
        assert frame.Q.rows == ((1,) * n,)
        assert frame.H.k == n - 1
        assert not frame.H.contains(frame.Q)
        # exactly one of each complement pair of lines lies inside H
        universe = frozenset(range(1, n + 1))
        for size in range(1, n):
            for sup in itertools.combinations(range(1, n + 1), size):
                inside = frame.H.contains(p_point(sup, n))
                twin_inside = frame.H.contains(p_point(universe - frozenset(sup), n))
                assert inside != twin_inside


def test_p_point_examples():
    assert p_point({1, 4}, 4).rows == ((1, 0, 0, 1),)
    assert p_copoint({1}, 4).rows == ((0, 1, 1, 1),)
    for sup in [{1}, {2, 3}, {1, 2, 4}]:
        assert p_point(set(range(1, 5)) - sup, 4) == p_copoint(sup, 4)
    with pytest.raises(ParameterError):
        p_point(set(), 4)
    with pytest.raises(ParameterError):
        p_point({1, 2, 3, 4}, 4)


def test_abc_partition_matches_example1_exactly(example1_classes):
    g = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    part = abc_partition(g)
    for name, vids in (("A", part.A), ("B", part.B), ("C", part.C)):
        assert {g.vertices[v] for v in vids} == set(example1_classes[name]), name
    assert (len(part.A), len(part.B), len(part.C)) == (7, 3, 3)


def test_specific_memberships():
    g = build_graph(4, 2, 2, KIND_NONDEGENERATE)
    part = abc_partition(g)
    b_example = subspace_sum(p_copoint({1}, 4), p_copoint({2}, 4))
    c_example = subspace_sum(p_copoint({3}, 4), p_copoint({4}, 4))
    assert g.index[b_example] in part.B
    assert g.index[c_example] in part.C


def test_partition_trichotomy_and_structural_characterization():
    for n in (4, 5, 6):
        frame = special_frame(n)
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        part = abc_partition(g)
        assert part.A | part.B | part.C == frozenset(range(g.nv))
        assert not (part.A & part.B or part.A & part.C or part.B & part.C)
        for vid in part.C:
            x = g.vertices[vid]
            assert in_c_class(x)
            outside = [p for p in x.lines() if not frame.H.contains(p)]
            sup_i, sup_j = (line_support(p) for p in outside)
            assert sup_i | sup_j == frozenset(range(1, n + 1))
            assert sup_i & sup_j
            # x meets H in the complement-support line of that overlap
            assert intersect(x, frame.H) == p_copoint(sup_i & sup_j, n)


def test_complement_examples_match_example2(example2_complements):
    for src, img in zip(
        example2_complements["source"], example2_complements["image"]
    ):
        assert complement_code(src) == img


def test_complement_contains_the_twin_pair():
    # the source and its companion contain the in/out twin lines on {i, 4}
    for i in (1, 2, 3):
        x = subspace_sum(p_copoint({i}, 4), p_copoint({4}, 4))
        xc = complement_code(x)
        assert x.contains(p_point({i, 4}, 4))
        assert xc.contains(p_copoint({i, 4}, 4))


def test_complement_postconditions():
    for n in (4, 5):
        frame = special_frame(n)
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        part = abc_partition(g)
        seen = {}
        for vid in part.C:
            x = g.vertices[vid]
            xc = complement_code(x)
            assert frame.H.contains(xc)
            assert not is_nondegenerate(xc)
            assert intersect(x, xc).k == 1
            outside = [p for p in x.lines() if not frame.H.contains(p)]
            overlap = line_support(outside[0]) & line_support(outside[1])
            for i in overlap:
                assert all(v[i - 1] == 0 for v in xc.rows)
            assert xc not in seen.values()
            seen[vid] = xc


def test_complement_rejects_non_c_members():
    with pytest.raises(ParameterError):
        complement_code(rref([(1, 1, 1, 1), (0, 1, 1, 1)]))  # A class


def test_h_map_examples(example2_complements):
    fixed_a = rref([(1, 1, 1, 1), (0, 1, 1, 1)])
    fixed_b = subspace_sum(p_copoint({1}, 4), p_copoint({2}, 4))
    assert h_map(fixed_a) == fixed_a
    assert h_map(fixed_b) == fixed_b
    for src, img in zip(
        example2_complements["source"], example2_complements["image"]
    ):
        assert h_map(src) == img
    with pytest.raises(ParameterError):
        h_map(rref([(1, 0, 0, 0), (0, 1, 0, 0)]))  # degenerate input


def test_h_fixes_exactly_a_union_b():
    for n in (4, 5):
        g = build_graph(n, 2, 2, KIND_NONDEGENERATE)
        part = abc_partition(g)
        images = {}
        for vid, x in enumerate(g.vertices):
            hx = h_map(x)
            assert (hx == x) == (vid in part.A | part.B)
            images[vid] = hx
        assert len(set(images.values())) == g.nv  # injective


def test_projective_morphism_examples():
    frame = special_frame(4)
    assert projective_morphism(frame.Q) == frame.Q
    p_up1 = p_copoint({1}, 4)
    assert projective_morphism(p_up1) == p_up1
    assert projective_morphism(p_point({1, 4}, 4)) == p_point({2, 3}, 4)


def test_morphism_sends_lines_into_lines():
    for n in (4, 5):
        images = {p: projective_morphism(p) for p in enumerate_subspaces(n, 1, 2)}
        for w in enumerate_subspaces(n, 2, 2):
            rows = []
            for p in w.lines():
                rows.extend(images[p].rows)
            assert rref(rows, n, 2).k <= 2
        assert len(set(images.values())) < len(images)  # non-injective


def test_verify_h_4_to_5():
    for n in (4, 5):
        report = verify_h(n)
        assert report["passed"], report
        assert len(report["assertions"]) == 5
        by_name = {a["name"]: a for a in report["assertions"]}
        assert by_name["one_direction_only"]["witness"] is not None
        assert by_name["point_map_morphism_noninjective"]["witness"] is not None


def test_verify_h_rejects_small_n():
    with pytest.raises(ParameterError):
        verify_h(3)


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        pytest.param(p_point, ({5}, 4), ParameterError, r"support \[5\] out of range 1\.\.4", id="p_point"),
        pytest.param(line_support, (rref([(1, 0, 0, 0), (0, 1, 0, 0)]),), ValueError, "expected a line", id="line_support"),
        pytest.param(special_frame, (1,), ParameterError, "at least 2", id="special_frame"),
        pytest.param(
            abc_partition,
            (build_graph(4, 2, 2),),
            ParameterError,
            "partition is defined on the non-degenerate graph",
            id="abc_partition",
        ),
        pytest.param(
            in_c_class, (p_point({1}, 4),), ParameterError, "class membership is defined", id="c_decomposition"
        ),
        pytest.param(h_map, (p_point({1}, 4),), ParameterError, "the map is defined", id="h_map"),
        pytest.param(
            projective_morphism,
            (rref([(1, 0, 0, 0), (0, 1, 0, 0)]),),
            ParameterError,
            "expected a line over F_2",
            id="projective_morphism",
        ),
    ],
)
def test_malformed_input_is_refused(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)

import itertools
import random

import pytest

from codegraph.errors import ParameterError
from codegraph.fqlinalg import (
    Subspace,
    check_space,
    coordinate_hyperplane,
    enumerate_subspaces,
    format_subspace_blocks,
    full_space,
    gaussian_binomial,
    intersect,
    nullspace,
    parse_subspace,
    parse_subspace_blocks,
    parse_vector,
    rank_bits,
    reduce_bits,
    rref,
    rref_bits,
    standard_basis_vector,
    subspace_sum,
    zero_subspace,
)


def brute_force_subspaces(n: int, k: int, q: int) -> set[Subspace]:
    """Oracle: span every k-tuple of vectors and deduplicate canonically."""
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    found = set()
    for combo in itertools.combinations(vectors, k):
        s = rref(combo, n, q)
        if s.k == k:
            found.add(s)
    if k == 0:
        found = {zero_subspace(n, q)}
    return found


def random_subspace(rng: random.Random, n: int, k: int, q: int = 2) -> Subspace:
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        s = rref(rows, n, q)
        if s.k == k:
            return s


def test_field_spec_rejects_composites():
    check_space(1, 2)
    check_space(1, 13)
    with pytest.raises(ParameterError):
        check_space(1, 4)
    with pytest.raises(ParameterError):
        check_space(1, 1)


def test_rref_hand_example():
    # row1 + row2 eliminates the tail of the first row
    s = rref([(1, 1, 1, 1), (0, 1, 1, 1)])
    assert s.rows == ((1, 0, 0, 0), (0, 1, 1, 1))


def test_rref_already_canonical():
    s = rref([standard_basis_vector(1, 4)])
    assert s.rows == ((1, 0, 0, 0),)


def test_rref_duplicate_rows_collapse():
    s = rref([(1, 1), (1, 1)])
    assert s.k == 1 and s.rows == ((1, 1),)


def test_rref_dimension_mismatch():
    with pytest.raises(ValueError):
        rref([(1, 0), (1, 0, 0)])


def test_subspace_rejects_non_canonical_rows():
    with pytest.raises(ValueError, match="pivot column not cleared"):
        Subspace(3, 2, ((1, 1, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="pivot columns not strictly increasing"):
        Subspace(3, 2, ((0, 1, 0), (1, 0, 0)))
    with pytest.raises(ValueError, match="pivot entry is not 1"):
        Subspace(3, 3, ((0, 2, 0),))
    with pytest.raises(ValueError, match="basis row width differs from ambient dimension"):
        Subspace(3, 2, ((1, 0),))
    with pytest.raises(ValueError, match="basis entry out of field range"):
        Subspace(3, 2, ((1, 0, 2),))
    with pytest.raises(ValueError, match="zero basis row"):
        Subspace(3, 2, ((0, 0, 0),))


def test_sum_examples():
    e1 = rref([standard_basis_vector(1, 4)])
    e2 = rref([standard_basis_vector(2, 4)])
    assert subspace_sum(e1, e2) == rref([(1, 0, 0, 0), (0, 1, 0, 0)])
    # span of the complements of axes 1 and 4 has these three nonzero vectors
    p_up1 = rref([(0, 1, 1, 1)])
    p_up4 = rref([(1, 1, 1, 0)])
    s = subspace_sum(p_up1, p_up4)
    assert set(s.nonzero_vectors()) == {(0, 1, 1, 1), (1, 1, 1, 0), (1, 0, 0, 1)}
    assert subspace_sum(s, s) == s


def test_intersect_examples():
    x = rref([(0, 1, 1, 1), (1, 1, 1, 0)])
    xc = rref([(0, 1, 1, 1), (0, 0, 0, 1)])
    assert intersect(x, xc) == rref([(0, 1, 1, 1)])
    assert intersect(x, x) == x
    e12 = rref([(1, 0, 0, 0), (0, 1, 0, 0)])
    e34 = rref([(0, 0, 1, 0), (0, 0, 0, 1)])
    assert intersect(e12, e34).k == 0


def test_enumerate_against_brute_force_oracle():
    listed = enumerate_subspaces(4, 2, 2)
    assert len(listed) == 35
    assert set(listed) == brute_force_subspaces(4, 2, 2)
    # strictly sorted in the canonical order
    flat = [s.flat for s in listed]
    assert flat == sorted(flat)


def test_enumerate_oracle_q3():
    listed = enumerate_subspaces(3, 2, 3)
    assert set(listed) == brute_force_subspaces(3, 2, 3)


def test_enumerate_trivial_cases():
    assert enumerate_subspaces(4, 4, 2) == (full_space(4, 2),)
    assert len(enumerate_subspaces(4, 1, 2)) == 15
    assert enumerate_subspaces(3, 0, 2) == (zero_subspace(3, 2),)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert len(enumerate_subspaces(5, 2, 2)) == 155
    for n in range(0, 7):
        assert gaussian_binomial(n, 0, 2) == 1


def test_enumeration_length_matches_gaussian_binomial():
    for q in (2, 3):
        nmax = 8 if q == 2 else 5
        for n in range(1, nmax + 1):
            for k in range(0, n + 1):
                if gaussian_binomial(n, k, q) > 20000:
                    continue
                assert len(enumerate_subspaces(n, k, q)) == gaussian_binomial(n, k, q)


def test_coordinate_hyperplane():
    c1 = coordinate_hyperplane(1, 4)
    assert c1 == rref([standard_basis_vector(j, 4) for j in (2, 3, 4)])
    for i in range(1, 5):
        ci = coordinate_hyperplane(i, 4)
        assert ci.k == 3
        assert not ci.contains_vector(standard_basis_vector(i, 4))
    with pytest.raises(ParameterError):
        coordinate_hyperplane(5, 4)


def test_out_of_range_parameters():
    with pytest.raises(ParameterError):
        enumerate_subspaces(17, 2, 2)
    with pytest.raises(ParameterError):
        enumerate_subspaces(9, 2, 3)
    with pytest.raises(ParameterError):
        enumerate_subspaces(16, 2, 2)  # ambient fits, listing would not
    with pytest.raises(ParameterError):
        gaussian_binomial(3, 4, 2)


def test_canonicity_under_random_respanning():
    # every generating set of the same subspace produces the identical value
    rng = random.Random(0xC0DE)
    for trial in range(300):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        q = rng.choice((2, 3))
        s = random_subspace(rng, n, k, q)
        mixed = []
        for _ in range(k + rng.randrange(3)):
            coeffs = [rng.randrange(q) for _ in range(k)]
            acc = [0] * n
            for c, row in zip(coeffs, s.rows):
                acc = [(a + c * r) % q for a, r in zip(acc, row)]
            mixed.append(tuple(acc))
        respanned = rref(mixed + list(s.rows), n, q)
        assert respanned == s


def test_dimension_formula_random_pairs():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randrange(2, 9)
        q = rng.choice((2, 3)) if n <= 6 else 2
        x = random_subspace(rng, n, rng.randrange(1, n + 1), q)
        y = random_subspace(rng, n, rng.randrange(1, n + 1), q)
        assert subspace_sum(x, y).k + intersect(x, y).k == x.k + y.k


def test_membership_matches_rank_oracle():
    rng = random.Random(99)
    for trial in range(300):
        n = rng.randrange(2, 8)
        x = random_subspace(rng, n, rng.randrange(1, n + 1))
        v = tuple(rng.randrange(2) for _ in range(n))
        joined = rref(list(x.rows) + [v], n, 2)
        assert x.contains_vector(v) == (joined.k == x.k)


def random_rows(rng: random.Random, n: int, basis: tuple[int, ...]) -> list[int]:
    """Up to six packed rows of width n: random ones, zeros, and sums of
    rows of ``basis`` (already in its span)."""
    rows = []
    for _ in range(rng.randrange(7)):
        pick = rng.random()
        if pick < 0.2:
            rows.append(0)
        elif pick < 0.5 and basis:
            acc = 0
            for b in rng.sample(basis, rng.randint(1, len(basis))):
                acc ^= b
            rows.append(acc)
        else:
            rows.append(rng.randrange(1 << n))
    return rows


def test_rref_bits_extends_a_basis_as_one_reduction():
    rng = random.Random(21)
    for n in range(1, 10):
        for _ in range(150):
            a = random_rows(rng, n, ())
            basis = rref_bits(a)
            b = random_rows(rng, n, basis)
            assert rref_bits(b, basis) == rref_bits(a + b), (n, a, b)
            assert rref_bits(b, ()) == rref_bits(b)
            assert rref_bits((), basis) == basis


def test_reduce_bits_is_zero_iff_the_rank_stays():
    rng = random.Random(22)
    for n in range(1, 10):
        for _ in range(150):
            basis = rref_bits(random_rows(rng, n, ()))
            for r in random_rows(rng, n, basis) + [rng.randrange(1 << n)]:
                rem = reduce_bits(r, basis)
                assert (rem == 0) == (rank_bits(basis + (r,)) == len(basis)), (n, basis, r)
                # the remainder differs from r by a sum of basis rows
                assert rank_bits(basis + (r ^ rem,)) == len(basis)


def test_nullspace_is_orthogonal_complement_dimension():
    rng = random.Random(5)
    for trial in range(100):
        n = rng.randrange(2, 8)
        x = random_subspace(rng, n, rng.randrange(1, n))
        ns = nullspace(x.rows, n, 2)
        assert ns.k == n - x.k
        for v in ns.rows:
            assert sum(a * b for a, b in zip(x.rows[0], v)) % 2 == 0


def test_nullspace_at_q3_is_the_orthogonal_kernel():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n)
        x = random_subspace(rng, n, k, q=3)
        ns = nullspace(x.rows, n, 3)
        assert ns.q == 3 and ns.k == n - k
        for v in ns.rows:
            for r in x.rows:
                assert sum(a * b for a, b in zip(r, v)) % 3 == 0


def test_text_format_round_trip():
    s = rref([(1, 1, 1, 1), (0, 1, 1, 1)])
    assert s.to_text() == "1000\n0111"
    assert parse_subspace(s.to_text()) == s
    # a matrix listing all nonzero vectors spans the same thing
    assert parse_subspace("1111\n0111\n1000") == s
    blocks = format_subspace_blocks(enumerate_subspaces(3, 1, 2))
    parsed = parse_subspace_blocks(blocks)
    assert tuple(parsed) == enumerate_subspaces(3, 1, 2)


def test_enumerate_call_forms_share_one_cache_entry():
    subs = enumerate_subspaces(4, 2, 2)
    assert enumerate_subspaces(n=4, k=2, q=2) is subs
    assert enumerate_subspaces(4, k=2, q=2) is subs


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        pytest.param(parse_vector, ("0120", 2), ValueError, "bad coordinate '2' for F_2", id="parse_vector"),
        pytest.param(
            standard_basis_vector, (5, 4), ParameterError, r"basis index 5 out of range 1\.\.4", id="basis_index"
        ),
        pytest.param(
            Subspace.contains_vector,
            (full_space(4), (1, 0, 1)),
            ValueError,
            "vector width differs from ambient dimension",
            id="contains_vector",
        ),
        pytest.param(
            Subspace.contains, (full_space(4), full_space(3)), ValueError, "mismatched ambient spaces", id="contains"
        ),
        pytest.param(
            subspace_sum, (full_space(4), zero_subspace(4, 3)), ValueError, "mismatched ambient spaces", id="sum"
        ),
        pytest.param(intersect, (full_space(4), full_space(5)), ValueError, "mismatched ambient spaces", id="intersect"),
        pytest.param(rref, ([],), ValueError, "ambient dimension required for an empty span", id="empty_rref"),
        pytest.param(enumerate_subspaces, (4, 5, 2), ParameterError, "need 0 <= k <= n, got k=5, n=4", id="k_range"),
    ],
)
def test_malformed_input_is_refused(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)

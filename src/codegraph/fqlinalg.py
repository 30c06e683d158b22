"""Linear algebra over small prime fields.

Vectors are coordinate tuples and subspaces are stored as the unique
reduced row echelon basis of their row space, so two values describe the
same subspace exactly when they compare equal.  Each basis row's support
is also packed into a machine integer at construction (bit i holds
coordinate i + 1); for q = 2 that is the row itself, and all elimination
kernels run on XOR; other primes use plain residue arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError

# Hard desk-scale bounds, validated at every public entry point.
MAX_AMBIENT = 1 << 16      # largest allowed number of ambient vectors q**n
MAX_LISTING = 1_000_000    # largest allowed subspace enumeration

Vector = tuple[int, ...]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_space(n: int, q: int) -> None:
    """Validate ambient parameters against the desk-scale bounds."""
    if not is_prime(q):
        raise ParameterError(f"field order must be prime, got {q}")
    if n < 1 or q**n > MAX_AMBIENT:
        raise ParameterError(f"ambient space of dimension {n} over F_{q} is out of the supported range")


def make_vector(coords: Sequence[int], q: int) -> Vector:
    """Reduce a coordinate sequence mod q."""
    return tuple(c % q for c in coords)


def vector_text(v: Sequence[int]) -> str:
    return "".join(str(c) for c in v)


def parse_vector(text: str, q: int) -> Vector:
    coords = []
    for ch in text.strip():
        if not ch.isdigit() or int(ch) >= q:
            raise ValueError(f"bad coordinate {ch!r} for F_{q}")
        coords.append(int(ch))
    return tuple(coords)


def vec_to_bits(v: Sequence[int]) -> int:
    b = 0
    for i, c in enumerate(v):
        if c:
            b |= 1 << i
    return b


def bits_to_vec(b: int, n: int) -> Vector:
    return tuple((b >> i) & 1 for i in range(n))


def standard_basis_vector(i: int, n: int) -> Vector:
    """e_i with 1-based index i."""
    if not 1 <= i <= n:
        raise ParameterError(f"basis index {i} out of range 1..{n}")
    return tuple(1 if j == i - 1 else 0 for j in range(n))


# ---------------------------------------------------------------------------
# elimination kernels


def rref_bits(rows: Iterable[int], basis: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Reduce integer-packed GF(2) rows, extending ``basis``, a result of
    this function (none by default).

    Returns the fully reduced nonzero rows ordered by pivot position
    (pivot = lowest set bit, i.e. the smallest coordinate index).  The
    rows kept so far stay fully reduced, so ``reduce_bits`` reduces each
    new row by one pass over them; one left nonzero clears its pivot
    from them and joins them.
    """
    out = list(basis)
    for r in rows:
        r = reduce_bits(r, out)
        if r:
            low = r & -r
            out = [b ^ r if b & low else b for b in out]
            out.append(r)
    out.sort(key=lambda b: b & -b)
    return tuple(out)


def reduce_bits(r: int, basis: Sequence[int]) -> int:
    """Remainder of the packed row r against a basis that ``rref_bits``
    returned: 0 exactly when r lies in its span."""
    for b in basis:
        if r & b & -b:
            r ^= b
    return r


def rank_bits(rows: Iterable[int]) -> int:
    """GF(2) rank of packed rows, no back-substitution.

    Rows are keyed by their lowest set bit, so every reduction strictly
    raises the candidate's lowest bit and the fold terminates.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            b = pivots.get(p)
            if b is None:
                pivots[p] = r
                break
            r ^= b
    return len(pivots)


def rref_modq(rows: Iterable[Sequence[int]], n: int, q: int) -> tuple[Vector, ...]:
    """Reduced row echelon form over F_q by Gauss-Jordan elimination."""
    mat = [list(make_vector(r, q)) for r in rows]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(x - c * y) % q for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return tuple(tuple(row) for row in mat[:rank])


# ---------------------------------------------------------------------------
# subspaces


@total_ordering
@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of F_q^n held as its canonical basis.

    rows is the reduced row echelon basis with strictly increasing pivot
    columns; the constructor rejects anything else, so equality of field
    contents is equality of subspaces and comparing (n, q, k, rows) gives
    a deterministic total order (at equal n and k, that of the bases read
    row-major).  bits,
    set at construction, packs each row's support (the row itself for
    q = 2); equality, hashing and repr ignore it.
    """

    n: int
    q: int
    rows: tuple[Vector, ...]
    bits: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        seen = -1
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("basis row width differs from ambient dimension")
            if any(not 0 <= c < self.q for c in row):
                raise ValueError("basis entry out of field range")
            piv = next((j for j, c in enumerate(row) if c), None)
            if piv is None:
                raise ValueError("zero basis row")
            if piv <= seen:
                raise ValueError("pivot columns not strictly increasing")
            if row[piv] != 1:
                raise ValueError("pivot entry is not 1")
            for other in self.rows:
                if other is not row and other[piv]:
                    raise ValueError("pivot column not cleared")
            seen = piv
        object.__setattr__(self, "bits", tuple(vec_to_bits(r) for r in self.rows))

    @property
    def k(self) -> int:
        return len(self.rows)

    def __lt__(self, other: "Subspace") -> bool:
        return (self.n, self.q, self.k, self.rows) < (other.n, other.q, other.k, other.rows)

    def contains_vector(self, v: Sequence[int]) -> bool:
        v = make_vector(v, self.q)
        if len(v) != self.n:
            raise ValueError("vector width differs from ambient dimension")
        if self.q == 2:
            return reduce_bits(vec_to_bits(v), self.bits) == 0
        red = list(v)
        for row in self.rows:
            piv = next(j for j, c in enumerate(row) if c)
            if red[piv]:
                c = red[piv]
                red = [(x - c * y) % self.q for x, y in zip(red, row)]
        return not any(red)

    def contains(self, other: "Subspace") -> bool:
        if (self.n, self.q) != (other.n, other.q):
            raise ValueError("mismatched ambient spaces")
        return all(self.contains_vector(r) for r in other.rows)

    def vectors(self) -> Iterator[Vector]:
        """All q**k vectors, the zero vector first."""
        for coeffs in itertools.product(range(self.q), repeat=self.k):
            acc = [0] * self.n
            for c, row in zip(coeffs, self.rows):
                if c:
                    acc = [(a + c * r) % self.q for a, r in zip(acc, row)]
            yield tuple(acc)

    def nonzero_vectors(self) -> list[Vector]:
        return [v for v in self.vectors() if any(v)]

    def lines(self) -> list["Subspace"]:
        """The 1-dimensional subspaces contained in this subspace."""
        out = []
        for v in self.nonzero_vectors():
            piv = next(j for j, c in enumerate(v) if c)
            if v[piv] == 1:  # one monic representative per line
                out.append(Subspace(self.n, self.q, (v,)))
        return sorted(out)

    def to_text(self) -> str:
        return "\n".join(vector_text(r) for r in self.rows)

    def inline_text(self) -> str:
        """Single-line form used in report rows."""
        return "/".join(vector_text(r) for r in self.rows) if self.rows else "0"


def rref(vectors: Iterable[Sequence[int]], n: int | None = None, q: int = 2) -> Subspace:
    """Canonical subspace spanned by the given vectors.

    n is only required when the vector list is empty (the zero subspace
    of F_q^n); otherwise it is inferred and checked.
    """
    vecs = [tuple(v) for v in vectors]
    if vecs:
        if n is None:
            n = len(vecs[0])
        if any(len(v) != n for v in vecs):
            raise ValueError("rows of differing width")
    elif n is None:
        raise ValueError("ambient dimension required for an empty span")
    check_space(n, q)
    if q == 2:
        red = rref_bits(vec_to_bits(make_vector(v, 2)) for v in vecs)
        rows = tuple(bits_to_vec(b, n) for b in red)
    else:
        rows = rref_modq(vecs, n, q)
    return Subspace(n, q, rows)


def from_bits(bits_rows: Iterable[int], n: int) -> Subspace:
    """Subspace from already-canonical packed GF(2) rows."""
    return Subspace(n, 2, tuple(bits_to_vec(b, n) for b in bits_rows))


def zero_subspace(n: int, q: int = 2) -> Subspace:
    return rref((), n, q)


def full_space(n: int, q: int = 2) -> Subspace:
    return rref([standard_basis_vector(i, n) for i in range(1, n + 1)], n, q)


def subspace_sum(x: Subspace, y: Subspace) -> Subspace:
    """Canonical form of X + Y."""
    if (x.n, x.q) != (y.n, y.q):
        raise ValueError("mismatched ambient spaces")
    return rref(x.rows + y.rows, x.n, x.q)


def intersect(x: Subspace, y: Subspace) -> Subspace:
    """Canonical form of the intersection, by the Zassenhaus trick.

    Rows (u | u) for u in X and (v | 0) for v in Y are reduced with pivot
    priority on the left block; rows whose left block vanished carry an
    echelon basis of the intersection in the right block.
    """
    if (x.n, x.q) != (y.n, y.q):
        raise ValueError("mismatched ambient spaces")
    n, q = x.n, x.q
    if q == 2:
        mask = (1 << n) - 1
        rows = [b | (b << n) for b in x.bits] + list(y.bits)
        red = rref_bits(rows)
        inter = [r >> n for r in red if not (r & mask)]
        return from_bits(inter, n)
    rows = [tuple(r) + tuple(r) for r in x.rows] + [tuple(r) + (0,) * n for r in y.rows]
    red = rref_modq(rows, 2 * n, q)
    inter = [r[n:] for r in red if not any(r[:n])]
    return Subspace(n, q, tuple(inter))


def nullspace(rows: Iterable[Sequence[int]], n: int, q: int = 2) -> Subspace:
    """Right kernel {v : R v = 0} of the row matrix R."""
    red = rref(rows, n, q).rows
    pivots = [next(j for j, c in enumerate(r) if c) for r in red]
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, p in zip(red, pivots):
            v[p] = (-row[f]) % q
        basis.append(tuple(v))
    return rref(basis, n, q)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(n: int, k: int, q: int) -> tuple[Subspace, ...]:
    """All k-dimensional subspaces of F_q^n in a fixed deterministic order.

    Reduced echelon bases are generated directly from their pivot-column
    patterns, then sorted lexicographically on their rows (the basis read
    row-major).  The order is what gives graphs their stable vertex ids.
    Positional and keyword calls share one cache entry.
    """
    return _enumerate_subspaces(n, k, q)


@lru_cache(maxsize=None)
def _enumerate_subspaces(n: int, k: int, q: int) -> tuple[Subspace, ...]:
    check_space(n, q)
    # gaussian_binomial refuses a k outside 0..n
    if gaussian_binomial(n, k, q) > MAX_LISTING:
        raise ParameterError(f"enumeration of {n},{k} subspaces over F_{q} exceeds the desk-scale cap")
    out = []
    for pivots in itertools.combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free)):
            mat = [[0] * n for _ in range(k)]
            for i in range(k):
                mat[i][pivots[i]] = 1
            for (i, j), v in zip(free, vals):
                mat[i][j] = v
            out.append(Subspace(n, q, tuple(tuple(r) for r in mat)))
    out.sort()
    return tuple(out)


def coordinate_hyperplane(i: int, n: int, q: int = 2) -> Subspace:
    """Kernel of the i-th coordinate functional (1-based i)."""
    if not 1 <= i <= n:
        raise ParameterError(f"coordinate index {i} out of range 1..{n}")
    return rref(
        [standard_basis_vector(j, n) for j in range(1, n + 1) if j != i], n, q
    )


# ---------------------------------------------------------------------------
# text format: one digit-string row per line, blank lines between blocks


def format_subspace_blocks(subs: Iterable[Subspace]) -> str:
    return "\n\n".join(s.to_text() for s in subs)


def parse_subspace(text: str, q: int = 2, n: int | None = None) -> Subspace:
    """Parse one block of digit-string rows; spans and canonicalizes."""
    rows = [parse_vector(line, q) for line in text.strip().splitlines() if line.strip()]
    if rows and n is None:
        n = len(rows[0])
    return rref(rows, n, q)


def parse_subspace_blocks(text: str, q: int = 2) -> list[Subspace]:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [parse_subspace(b, q) for b in blocks]

"""Independent answers for the benchmark's correctness checks.

Nothing here imports codegraph.  Vectors of F_2^n are integers with
coordinate i (1-based) at bit i - 1, the packing codegraph also uses
for its ``Subspace.bits``; a plane (2-dimensional subspace) is the
frozenset of its three nonzero vectors.  Two planes are adjacent in the
Grassmann graph when they share exactly one nonzero vector.

Every ``check_*`` function returns a list of error strings, empty when
the answer is right, so the benchmark and its own tests can hand it a
deliberately wrong answer and see it fail.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable, Sequence

Plane = frozenset

# -- counting --------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """Number of k-dimensional subspaces of F_q^n, [n, k]_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(n: int, q: int = 2) -> int:
    """|GL(n, q)| = prod_{i < n} (q^n - q^i)."""
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def nondegenerate_count(n: int, k: int, q: int = 2) -> int:
    """k-subspaces of F_q^n inside no coordinate hyperplane, by
    inclusion-exclusion over the sets of coordinates forced to zero."""
    return sum((-1) ** j * comb(n, j) * gaussian_binomial(n - j, k, q) for j in range(n + 1))


def weight_at_least(n: int, w: int) -> int:
    """Nonzero vectors of F_2^n with at least w coordinates set."""
    return sum(comb(n, i) for i in range(w, n + 1))


# -- F_2 arithmetic ----------------------------------------------------------


def rank(vectors: Iterable[int]) -> int:
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def span(vectors: Iterable[int]) -> frozenset[int]:
    """All F_2-combinations of the given vectors, zero included."""
    out = {0}
    for v in vectors:
        if v not in out:
            out |= {s ^ v for s in out}
    return frozenset(out)


def plane(a: int, b: int) -> Plane:
    return frozenset((a, b, a ^ b))


def all_planes(n: int) -> set[Plane]:
    top = 1 << n
    return {plane(a, b) for a in range(1, top) for b in range(a + 1, top)}


def adjacent(p: Plane, q: Plane) -> bool:
    return len(p & q) == 1


def nondegenerate(p: Plane, n: int) -> bool:
    """No coordinate is zero on every vector of p."""
    acc = 0
    for v in p:
        acc |= v
    return acc == (1 << n) - 1


def random_invertible(n: int, rng) -> tuple[int, ...]:
    """Columns of a uniformly random invertible matrix (rejection)."""
    while True:
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        if rank(cols) == n:
            return cols


def cols_from_rows(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Column bitmasks of a matrix given as 0/1 row tuples."""
    n = len(rows)
    return tuple(sum(rows[i][j] << i for i in range(n)) for j in range(n))


def mat_vec(cols: Sequence[int], v: int) -> int:
    out = 0
    j = 0
    while v:
        if v & 1:
            out ^= cols[j]
        v >>= 1
        j += 1
    return out


def apply(cols: Sequence[int], p: Plane) -> Plane:
    return frozenset(mat_vec(cols, v) for v in p)


def collapse(p: Plane, n: int) -> Plane:
    """The collapse map, from its definition.

    Q is the all-ones line; H is spanned by the lines whose support
    misses exactly one of the first n - 1 coordinates.  Planes through
    Q (class A) and planes inside H (class B) are fixed; any other plane
    meets H in one line and is replaced by that line plus the
    complement-support twins of its two lines outside H.
    """
    ones = (1 << n) - 1
    hyper = span(ones ^ (1 << i) for i in range(n - 1))
    if ones in p or p <= hyper:
        return p
    return frozenset(v if v in hyper else ones ^ v for v in p)


# -- checks ---------------------------------------------------------------------


def check_certificate(payload: dict, exit_code: int, n: int = 4) -> list[str]:
    """The complete n = 4 certificate: every embedding is one of the
    2 * |Aut G(4,2)| maps g and g o collapse, and every check passed."""
    errors: list[str] = []
    aut = 2 * gl_order(n)  # matrices and matrices composed with orthocomplement
    total = 2 * aut
    expected = {
        "n": n,
        "embeddings_total": total,
        "extendable": aut,
        "exceptional": aut,
        "unclassified": 0,
        "soundness_failures": 0,
        "witness_failures": 0,
        "route_mismatches": 0,
        "group_order": aut,
        "distinct_restrictions": aut,
        "distinct_exceptional_images": aut,
        "exceptional_witness_unique": True,
        "complete": True,
    }
    if exit_code != 0:
        errors.append(f"certificate exit code {exit_code}, expected 0")
    for key, want in expected.items():
        got = payload.get(key)
        if got != want or type(got) is not type(want):
            errors.append(f"certificate {key} = {got!r}, expected {want!r}")
    tallies = payload.get("lemma_chain")
    if not isinstance(tallies, dict) or not tallies:
        errors.append("certificate has no lemma-chain tallies")
    else:
        for name, tally in tallies.items():
            if tally != {"pass": total, "fail": 0}:
                errors.append(f"lemma tally {name} = {tally!r}, expected {total} passes and 0 fails")
    return errors


def check_repeats(first, later, what: str) -> list[str]:
    """Every pass of a run must return what its first pass returned."""
    return [] if later == first else [f"{what} differs from pass 0"]


def check_graph(planes: Sequence[Plane], adj: Sequence[int], n: int, kind: str) -> list[str]:
    """A program graph, given as one plane per vertex id and adjacency
    bitmask rows, against the planes and adjacency computed here."""
    everything = all_planes(n)
    if kind == "full":
        want = everything
        count = gaussian_binomial(n, 2)
    else:
        want = {p for p in everything if nondegenerate(p, n)}
        count = nondegenerate_count(n, 2)
    errors: list[str] = []
    if len(want) != count:
        errors.append(f"oracle plane count {len(want)} disagrees with the formula {count}")
    if len(planes) != count or set(planes) != want:
        errors.append(f"{kind} graph at n={n}: {len(planes)} vertices, expected the {count} planes")
        return errors
    through: dict[int, int] = {}
    for i, p in enumerate(planes):
        for v in p:
            through[v] = through.get(v, 0) | (1 << i)
    for i, p in enumerate(planes):
        row = 0
        for v in p:
            row |= through[v]
        row &= ~(1 << i)
        if row != adj[i]:
            errors.append(f"{kind} graph at n={n}: adjacency row {i} is wrong")
            break
    return errors


def classify_clique(planes: Iterable[Plane]) -> str:
    """star: the planes share a line; top: they span a 3-space."""
    planes = list(planes)
    common = frozenset.intersection(*planes)
    union = frozenset().union(*planes)
    is_star = len(common) == 1
    is_top = rank(union) == 3
    if is_star and is_top:
        return "star+top"
    return "star" if is_star else "top" if is_top else "neither"


def check_cliques(
    found: Sequence[frozenset[int]],
    verdicts: Sequence[str] | None,
    reference: set[frozenset[int]],
    planes: Sequence[Plane],
    what: str,
    stars: int | None = None,
    tops: int | None = None,
) -> list[str]:
    """Maximal cliques as vertex-id sets against a reference clique set,
    the program's verdicts (when given) against the ones recomputed
    here, and the star and top counts (when given)."""
    errors: list[str] = []
    if len(set(found)) != len(found):
        errors.append(f"{what}: a clique is reported twice")
    if set(found) != reference:
        errors.append(
            f"{what}: {len(set(found))} cliques, reference has {len(reference)} "
            f"({len(set(found) - reference)} extra, {len(reference - set(found))} missing)"
        )
    counts = {"star": 0, "top": 0, "neither": 0, "star+top": 0}
    for i, vids in enumerate(found):
        mine = classify_clique(planes[v] for v in vids)
        counts[mine] += 1
        if verdicts is not None and verdicts[i] != mine:
            errors.append(f"{what}: clique {sorted(vids)} reported {verdicts[i]}, is {mine}")
    if counts["neither"] or counts["star+top"]:
        errors.append(f"{what}: cliques that are not exactly one of star and top: {counts}")
    if stars is not None and counts["star"] != stars:
        errors.append(f"{what}: {counts['star']} stars, expected {stars}")
    if tops is not None and counts["top"] != tops:
        errors.append(f"{what}: {counts['top']} tops, expected {tops}")
    return errors


def check_chain(counts: dict, n: int = 4) -> list[str]:
    """The certificate rebuilt from public calls, one embedding at a time."""
    aut = 2 * gl_order(n)
    expected = {"total": 2 * aut, "rejected": 0, "lemma_failures": 0,
                "extendable": aut, "exceptional": aut, "unclassified": 0}
    return [
        f"call chain {key} = {counts.get(key)!r}, expected {want}"
        for key, want in expected.items()
        if counts.get(key) != want
    ]


def check_search_counts(enum_counts: Sequence[int], enum_digests: Sequence, aut_g42: int, aut_code6: int) -> list[str]:
    errors: list[str] = []
    total = 2 * 2 * gl_order(4)
    if any(c != total for c in enum_counts):
        errors.append(f"embedding counts {list(enum_counts)}, expected {total} in each order")
    if len(set(enum_digests)) != 1:
        errors.append("the two search orders found different embeddings")
    if aut_g42 != 2 * gl_order(4):
        errors.append(f"G(4,2) has {aut_g42} automorphisms, expected {2 * gl_order(4)}")
    if aut_code6 != factorial(6):
        errors.append(f"the n=6 code graph has {aut_code6} automorphisms, expected {factorial(6)}")
    return errors


def check_classified_map(record: dict, code: Sequence[Plane], full: Sequence[Plane], n: int) -> list[str]:
    """One map of the classify batch.

    ``record`` holds what it was built as (``built``: "g", "g*collapse"
    or "corrupt"), its ``images`` as full-graph vertex ids, and what the
    program answered: ``valid``, ``verdict``, ``witness_rows`` and
    ``witness_dual``, and for normalized maps ``lemma_failures`` and
    ``endgame``.
    """
    built = record["built"]
    images = record["images"]
    tag = f"map {record['index']} ({built})"
    errors: list[str] = []
    if built == "corrupt":
        if record["valid"]:
            errors.append(f"{tag}: is_valid_embedding accepted a corrupted map")
        if record["verdict"] != "unclassified":
            errors.append(f"{tag}: corrupted map classified {record['verdict']}")
        if not _breaks_embedding(images, code, full):
            errors.append(f"{tag}: the corrupted input is an embedding after all")
        return errors
    verdict = "extendable" if built == "g" else "exceptional"
    if not record["valid"]:
        errors.append(f"{tag}: is_valid_embedding rejected a valid map")
    if record["verdict"] != verdict:
        errors.append(f"{tag}: classified {record['verdict']}, expected {verdict}")
    if record.get("lemma_failures"):
        errors.append(f"{tag}: lemma checks failed: {record['lemma_failures']}")
    if record.get("endgame") != ("identity" if built == "g" else "h"):
        errors.append(f"{tag}: endgame {record.get('endgame')!r}")
    rows = record.get("witness_rows")
    if rows is None or record.get("witness_dual"):
        errors.append(f"{tag}: no linear witness")
        return errors
    cols = cols_from_rows(rows)
    for v, p in enumerate(code):
        base = p if built == "g" else collapse(p, n)
        if apply(cols, base) != full[images[v]]:
            errors.append(f"{tag}: the witness does not reproduce the image of vertex {v}")
            break
    return errors


def _breaks_embedding(images: Sequence[int], code: Sequence[Plane], full: Sequence[Plane]) -> bool:
    """True when the map is not injective or loses an edge."""
    if len(set(images)) != len(images):
        return True
    for i in range(len(code)):
        for j in range(i + 1, len(code)):
            if adjacent(code[i], code[j]) and not adjacent(full[images[i]], full[images[j]]):
                return True
    return False

"""Tests of the benchmark's own checks: each must pass the right answer
and fail a wrong one, so that none of them is vacuous.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

import oracle
import speed

N4_AUT = 2 * 20160
N4_TOTAL = 2 * N4_AUT


def test_counts_from_formulas():
    assert oracle.gl_order(4) == 20160
    assert oracle.gaussian_binomial(7, 2) == 2667
    assert oracle.nondegenerate_count(7, 2) == 364
    assert oracle.nondegenerate_count(4, 2) == 13
    assert oracle.weight_at_least(7, 3) == 99
    assert len(oracle.all_planes(4)) == oracle.gaussian_binomial(4, 2) == 35
    assert sum(oracle.nondegenerate(p, 7) for p in oracle.all_planes(7)) == 364


def test_collapse_is_an_embedding_that_is_not_induced():
    """The paper's properties of the collapse map, on the map built here."""
    n = 5
    code = [p for p in oracle.all_planes(n) if oracle.nondegenerate(p, n)]
    image = {p: oracle.collapse(p, n) for p in code}
    assert len(set(image.values())) == len(code)
    pairs = [(p, q) for i, p in enumerate(code) for q in code[i + 1 :]]
    assert all(oracle.adjacent(image[p], image[q]) for p, q in pairs if oracle.adjacent(p, q))
    assert any(oracle.adjacent(image[p], image[q]) for p, q in pairs if not oracle.adjacent(p, q))
    assert any(not oracle.nondegenerate(q, n) for q in image.values())


def certificate() -> dict:
    keys = ("normalize", "eq1", "eq2", "lemma5", "endgame")
    return {
        "n": 4, "k": 2, "q": 2,
        "embeddings_total": N4_TOTAL, "extendable": N4_AUT, "exceptional": N4_AUT, "unclassified": 0,
        "lemma_chain": {k: {"pass": N4_TOTAL, "fail": 0} for k in keys},
        "soundness_failures": 0, "witness_failures": 0, "route_mismatches": 0,
        "group_order": N4_AUT, "distinct_restrictions": N4_AUT, "distinct_exceptional_images": N4_AUT,
        "exceptional_witness_unique": True, "complete": True, "wall_ms": 12345,
    }


def test_certificate_check_accepts_the_right_answer():
    assert oracle.check_certificate(certificate(), 0) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update(extendable=N4_AUT - 1, unclassified=1),
        lambda c: c["lemma_chain"]["eq2"].update({"pass": N4_TOTAL - 1, "fail": 1}),
        lambda c: c.update(lemma_chain={}),
        lambda c: c.update(route_mismatches=1),
        lambda c: c.update(complete=False),
        lambda c: c.update(complete=1),
        lambda c: c.update(group_order=20160),
        lambda c: c.pop("distinct_restrictions"),
    ],
)
def test_certificate_check_rejects_a_wrong_answer(mutate):
    cert = certificate()
    mutate(cert)
    assert oracle.check_certificate(cert, 0)


def test_certificate_check_rejects_a_nonzero_exit():
    assert oracle.check_certificate(certificate(), 1)


def test_repeated_passes():
    assert oracle.check_repeats(certificate(), certificate(), "x") == []
    other = certificate()
    other["exceptional"] -= 1
    assert oracle.check_repeats(certificate(), other, "x")


def test_chain_check():
    right = {"total": N4_TOTAL, "rejected": 0, "lemma_failures": 0,
             "extendable": N4_AUT, "exceptional": N4_AUT, "unclassified": 0}
    assert oracle.check_chain(right) == []
    assert oracle.check_chain({**right, "extendable": N4_AUT - 1, "unclassified": 1})
    assert oracle.check_chain({**right, "lemma_failures": 1})


def graph(n: int, nondegenerate: bool) -> tuple[list, list[int]]:
    planes = sorted(
        (p for p in oracle.all_planes(n) if not nondegenerate or oracle.nondegenerate(p, n)),
        key=sorted,
    )
    adj = [
        sum(1 << j for j, q in enumerate(planes) if oracle.adjacent(p, q))
        for p in planes
    ]
    return planes, adj


def test_graph_check():
    planes, adj = graph(4, False)
    assert oracle.check_graph(planes, adj, 4, "full") == []
    assert oracle.check_graph(planes[1:], adj[1:], 4, "full")
    wrong = list(adj)
    wrong[3] ^= 1 << 7
    assert oracle.check_graph(planes, wrong, 4, "full")
    code, code_adj = graph(4, True)
    assert oracle.check_graph(code, code_adj, 4, "code") == []
    assert oracle.check_graph(planes, adj, 4, "code")


def cliques_of(adj: list[int]) -> set[frozenset[int]]:
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((i, j) for i, row in enumerate(adj) for j in range(i) if (row >> j) & 1)
    return {frozenset(c) for c in nx.find_cliques(g)}


def test_clique_check():
    planes, adj = graph(4, False)
    ref = cliques_of(adj)
    found = sorted(ref, key=sorted)
    verdicts = [oracle.classify_clique(planes[v] for v in c) for c in found]
    stars, tops = oracle.gaussian_binomial(4, 1), oracle.gaussian_binomial(4, 3)
    assert len(found) == stars + tops
    assert oracle.check_cliques(found, verdicts, ref, planes, "G(4,2)", stars, tops) == []
    # one clique missing: the count is off by one
    assert oracle.check_cliques(found[1:], verdicts[1:], ref, planes, "G(4,2)")
    assert oracle.check_cliques(found + found[:1], verdicts + verdicts[:1], ref, planes, "G(4,2)")
    flipped = ["top" if v == "star" else "star" for v in verdicts[:1]] + verdicts[1:]
    assert oracle.check_cliques(found, flipped, ref, planes, "G(4,2)")
    assert oracle.check_cliques(found, None, ref, planes, "G(4,2)", stars + 1, tops)
    assert oracle.check_cliques(found, None, ref, planes, "G(4,2)", stars, tops - 1)


def test_search_count_check():
    digest = (N4_TOTAL, 7, 9)
    assert oracle.check_search_counts([N4_TOTAL, N4_TOTAL], [digest, digest], N4_AUT, 720) == []
    assert oracle.check_search_counts([N4_TOTAL, N4_TOTAL - 1], [digest, digest], N4_AUT, 720)
    assert oracle.check_search_counts([N4_TOTAL, N4_TOTAL], [digest, (N4_TOTAL, 7, 8)], N4_AUT, 720)
    assert oracle.check_search_counts([N4_TOTAL, N4_TOTAL], [digest, digest], N4_AUT - 1, 720)
    assert oracle.check_search_counts([N4_TOTAL, N4_TOTAL], [digest, digest], N4_AUT, 719)


@pytest.fixture(scope="module")
def space5():
    n = 5
    full, _ = graph(n, False)
    code = [p for p in full if oracle.nondegenerate(p, n)]
    return n, code, full, {p: i for i, p in enumerate(full)}


def rows_of(cols, n):
    return tuple(tuple((cols[j] >> i) & 1 for j in range(n)) for i in range(n))


def classified(space5, built: str) -> dict:
    n, code, full, index = space5
    g = oracle.random_invertible(n, random.Random(0))
    base = code if built == "g" else [oracle.collapse(p, n) for p in code]
    return {
        "index": 0, "built": built, "images": tuple(index[oracle.apply(g, p)] for p in base),
        "valid": True, "verdict": "extendable" if built == "g" else "exceptional",
        "witness_rows": rows_of(g, n), "witness_dual": False,
        "lemma_failures": [], "endgame": "identity" if built == "g" else "h",
    }


@pytest.mark.parametrize("built", ["g", "g*collapse"])
def test_classified_map_check_accepts_the_right_answer(space5, built):
    n, code, full, _ = space5
    assert oracle.check_classified_map(classified(space5, built), code, full, n) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(verdict="unclassified"),
        lambda r: r.update(valid=False),
        lambda r: r.update(lemma_failures=["eq4"]),
        lambda r: r.update(endgame=None),
        lambda r: r.update(witness_rows=None),
        lambda r: r.update(witness_dual=True),
        lambda r: r.update(witness_rows=rows_of(oracle.random_invertible(5, random.Random(9)), 5)),
    ],
)
def test_classified_map_check_rejects_a_wrong_answer(space5, mutate):
    n, code, full, _ = space5
    record = classified(space5, "g")
    mutate(record)
    assert oracle.check_classified_map(record, code, full, n)


def corrupted(space5) -> dict:
    record = classified(space5, "g")
    images = list(record["images"])
    images[0] = images[1]
    return {**record, "built": "corrupt", "images": tuple(images), "valid": False,
            "verdict": "unclassified", "witness_rows": None}


def test_corrupted_map_check(space5):
    n, code, full, _ = space5
    assert oracle.check_classified_map(corrupted(space5), code, full, n) == []
    assert oracle.check_classified_map({**corrupted(space5), "valid": True}, code, full, n)
    assert oracle.check_classified_map({**corrupted(space5), "verdict": "extendable"}, code, full, n)
    # an input built as corrupt that is an embedding after all
    fake = {**classified(space5, "g"), "built": "corrupt", "valid": False, "verdict": "unclassified"}
    assert oracle.check_classified_map(fake, code, full, n)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_probe_scales_by_the_mean_host_speed():
    probe = speed.Probe()
    probe.elapsed = 3.0
    # one sample at the nominal speed, one at half of it
    probe.kernel_s = [speed.NOMINAL_KERNEL_S, 2 * speed.NOMINAL_KERNEL_S]
    assert probe.speed == pytest.approx(0.75)
    assert probe.scaled == pytest.approx(2.25)


def test_probe_samples_during_the_block_and_leaves_the_kernel_out():
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * speed.INTERVAL:
            pass
        busy = time.perf_counter() - t0
    # entry, exit and about one sample per interval in between
    assert len(probe.kernel_s) >= 5
    assert probe.elapsed == pytest.approx(busy - sum(probe.kernel_s[1:-1]), abs=0.01)
    assert signal.getsignal(signal.SIGALRM) is not probe._sample

"""The benchmark's three workloads.

Each workload has four steps:

* ``setup(tr)`` is the program's cold set-up (graphs, context, group
  tables), the part timed as ``setup_s``;
* ``prepare(seed)`` makes the inputs, untimed;
* ``run_pass(tr)`` is one timed pass, a fixed round of operations; it
  returns one result per operation, an ``OpFailure`` where the program
  raised;
* ``check(results, breakdown)`` compares one pass's results, and the
  traced run's ``breakdown(tr)`` results where the workload has one,
  with the answers in ``oracle`` and returns error strings; the runner
  checks that every later pass repeats the first.

Every call into codegraph goes through ``tr.call`` or ``tr.iterate``
with the name of the module function it calls, which is what the traced
run reports per layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import program  # noqa: F401  (puts the checkout's src/ first on sys.path)
from codegraph import autgroup, cli, cliques, verify
from codegraph.errors import Falsified
from codegraph.grassmann import KIND_FULL, KIND_NONDEGENERATE, build_graph

import oracle


@dataclass(frozen=True)
class OpFailure:
    error: str


def attempt(fn, *args):
    """Run one operation; an exception from the program fails the
    operation instead of the run."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (any program error is one failed operation)
        return OpFailure(f"{type(exc).__name__}: {exc}")


def build_graphs(tr, shapes) -> list:
    # positional arguments as verify.LemmaContext passes them, so the
    # lru_cache entries are the ones the context reuses
    graphs = []
    for n, kind in shapes:
        graphs.append(tr.call("grassmann.build_graph", build_graph, n, 2, 2, kind))
        tr.count("grassmann.build_graph.vertices", graphs[-1].nv)
    return graphs


def planes_of(graph) -> list[frozenset]:
    return [oracle.plane(*x.bits) for x in graph.vertices]


class CertifyN4:
    """``codegraph theorem --n 4 --format json``: the complete certificate."""

    name = "certify-n4"

    def setup(self, tr) -> None:
        build_graphs(tr, ((4, KIND_NONDEGENERATE), (4, KIND_FULL)))
        self.ctx = tr.call("verify.build_context", verify.build_context, 4)

    def prepare(self, seed: int) -> None:
        """The certificate is one fixed computation; there is nothing to draw."""

    def run_pass(self, tr) -> list:
        return [attempt(self._cli, tr)]

    def breakdown(self, tr) -> list:
        """The certificate again, through ``certify_theorem`` and then as
        the chain of public calls it is made of, for the per-layer view."""
        return [
            attempt(tr.call, "verify.certify_theorem", verify.certify_theorem, 4),
            attempt(self._chain, tr),
        ]

    def _cli(self, tr) -> tuple[int, dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tr.call("cli.main", cli.main, ["theorem", "--n", "4", "--format", "json"])
        payload = json.loads(out.getvalue())
        # timing is the one field that may differ from pass to pass
        payload.pop("wall_ms", None)
        return code, payload

    def _chain(self, tr) -> dict:
        ctx = self.ctx
        counts = {"total": 0, "rejected": 0, "lemma_failures": 0,
                  "extendable": 0, "exceptional": 0, "unclassified": 0}
        for emb in tr.iterate("verify.enumerate_embeddings", verify.enumerate_embeddings(4, ctx=ctx)):
            counts["total"] += 1
            if not tr.call("verify.is_valid_embedding", verify.is_valid_embedding, ctx, emb.images):
                tr.count("verify.is_valid_embedding.rejected")
                counts["rejected"] += 1
            normed, _ = tr.call("verify.normalize", verify.normalize, ctx, emb)
            report = tr.call("verify.lemma_chain", verify.lemma_chain, ctx, normed)
            counts["lemma_failures"] += sum(not r["passed"] for r in report["checks"].values())
            verdict = tr.call("verify.classify", verify.classify, ctx, emb).verdict
            if verdict == "unclassified":
                tr.count("verify.classify.unclassified")
            counts[verdict] += 1
        return counts

    def check(self, results: list, breakdown: list | None = None) -> list[str]:
        errors: list[str] = []
        for code, payload in (r for r in results if not isinstance(r, OpFailure)):
            errors += oracle.check_certificate(payload, code)
        if breakdown:
            cert, chain = breakdown
            if not isinstance(cert, OpFailure):
                errors += oracle.check_certificate(cert, 0)
            if not isinstance(chain, OpFailure):
                errors += oracle.check_chain(chain)
        return errors


class ClassifyN7:
    """A seeded batch of maps Γ(7,2)₂ -> G(7,2) through the public
    verify calls: g and g o collapse for random g in GL(7,2), and
    corrupted maps that are not embeddings."""

    name = "classify-n7"
    n = 7
    PER_KIND = 40  # maps g, and as many maps g o collapse
    CORRUPT = 16  # half collisions, half lost edges

    def setup(self, tr) -> None:
        build_graphs(tr, ((7, KIND_NONDEGENERATE), (7, KIND_FULL)))
        self.ctx = tr.call("verify.build_context", verify.build_context, 7)

    def prepare(self, seed: int) -> None:
        n, ctx = self.n, self.ctx
        self.code = planes_of(ctx.code)
        self.full = planes_of(ctx.full)
        self.graph_errors = (
            oracle.check_graph(self.code, ctx.code.adj, n, "code")
            + oracle.check_graph(self.full, ctx.full.adj, n, "full")
        )
        index = {p: i for i, p in enumerate(self.full)}
        rng = random.Random(seed)

        def image(built: str) -> list[int]:
            g = oracle.random_invertible(n, rng)
            if built == "g":
                return [index[oracle.apply(g, p)] for p in self.code]
            return [index[oracle.apply(g, oracle.collapse(p, n))] for p in self.code]

        maps = []
        for _ in range(self.PER_KIND):
            maps.append(("g", image("g")))
            maps.append(("g*collapse", image("g*collapse")))
        # corrupted maps cycle through: collision in g, lost edge in g,
        # collision in g o collapse, lost edge in g o collapse
        for i in range(self.CORRUPT):
            images = image("g" if i % 4 < 2 else "g*collapse")
            v = rng.randrange(len(images))
            if i % 2 == 0:
                w = rng.choice([w for w in range(len(images)) if w != v])
                images[v] = images[w]
            else:
                u = rng.choice([u for u in range(len(images)) if u != v and oracle.adjacent(self.code[u], self.code[v])])
                used = set(images)
                images[v] = rng.choice([
                    c for c, p in enumerate(self.full)
                    if c not in used and not oracle.adjacent(p, self.full[images[u]])
                ])
            maps.append(("corrupt", images))
        self.maps = [(built, tuple(images)) for built, images in maps]

    def run_pass(self, tr) -> list:
        return [attempt(self._one, tr, i, built, images) for i, (built, images) in enumerate(self.maps)]

    def _one(self, tr, index: int, built: str, images: tuple[int, ...]) -> dict:
        ctx = self.ctx
        valid = tr.call("verify.is_valid_embedding", verify.is_valid_embedding, ctx, images)
        if not valid:
            tr.count("verify.is_valid_embedding.rejected")
        record = {"index": index, "built": built, "images": images, "valid": valid,
                  "lemma_failures": None, "endgame": None}
        try:
            normed, _ = tr.call("verify.normalize", verify.normalize, ctx, verify.EmbeddingMap(self.n, images))
        except Falsified:
            tr.count("verify.normalize.rejected")
        else:
            report = tr.call("verify.lemma_chain", verify.lemma_chain, ctx, normed)
            record["lemma_failures"] = sorted(k for k, r in report["checks"].items() if not r["passed"])
            record["endgame"] = report["endgame_kind"]
        out = tr.call("verify.classify", verify.classify, ctx, verify.EmbeddingMap(self.n, images))
        if out.verdict == "unclassified":
            tr.count("verify.classify.unclassified")
        record["verdict"] = out.verdict
        record["witness_rows"] = out.witness.rows if out.witness else None
        record["witness_dual"] = out.witness.dual if out.witness else None
        return record

    def check(self, results: list, breakdown: list | None = None) -> list[str]:
        errors = list(self.graph_errors)
        for record in results:
            if not isinstance(record, OpFailure):
                errors += oracle.check_classified_map(record, self.code, self.full, self.n)
        return errors


class Search:
    """The program's backtracking searches and nothing else."""

    name = "search"
    def setup(self, tr) -> None:
        _, self.g42, self.code6, self.full6, self.code7 = build_graphs(tr, (
            (4, KIND_NONDEGENERATE), (4, KIND_FULL), (6, KIND_NONDEGENERATE), (6, KIND_FULL), (7, KIND_NONDEGENERATE),
        ))
        self.ctx = tr.call("verify.build_context", verify.build_context, 4, False)

    def prepare(self, seed: int) -> None:
        """The searches are fixed; there is nothing to draw."""

    def run_pass(self, tr) -> list:
        return [
            attempt(self._embeddings, tr, 0),
            attempt(self._embeddings, tr, 1),
            attempt(self._automorphisms, tr, self.g42),
            attempt(self._automorphisms, tr, self.code6),
            attempt(tr.call, "cliques.maximal_clique_masks", cliques.maximal_clique_masks, self.full6.adj),
            attempt(self._cliques, tr, self.code7),
        ]

    def _embeddings(self, tr, variant: int) -> tuple[int, int, int]:
        """(count, sum, xor) of the embeddings' hashes: a digest that does
        not depend on the order they come in."""
        count = total = xor = 0
        found = verify.enumerate_embeddings(4, ctx=self.ctx, order_variant=variant)
        for emb in tr.iterate("verify.enumerate_embeddings", found):
            h = hash(emb.images)
            count += 1
            total += h
            xor ^= h
        return count, total & (2**64 - 1), xor

    def _automorphisms(self, tr, g) -> int:
        count, _ = tr.call("autgroup.graph_automorphisms", autgroup.graph_automorphisms, g)
        tr.count("autgroup.graph_automorphisms.found", count)
        return count

    def _cliques(self, tr, g) -> list[tuple[frozenset[int], str]]:
        found = tr.call("cliques.enumerate_maximal_cliques", cliques.enumerate_maximal_cliques, g)
        tr.count("cliques.enumerate_maximal_cliques.found", len(found))
        return [(c.vertices, c.verdict) for c in found]

    def check(self, results: list, breakdown: list | None = None) -> list[str]:
        import networkx as nx  # imported only now, after the peak memory is read

        emb0, emb1, aut_g42, aut_code6, masks, code7_cliques = results
        errors: list[str] = []
        if not any(isinstance(r, OpFailure) for r in results[:4]):
            errors += oracle.check_search_counts(
                [emb0[0], emb1[0]], [emb0[1:], emb1[1:]], aut_g42, aut_code6
            )

        def reference(g) -> set[frozenset[int]]:
            graph = nx.Graph()
            graph.add_nodes_from(range(g.nv))
            graph.add_edges_from((i, j) for i in range(g.nv) for j in range(i + 1, g.nv) if (g.adj[i] >> j) & 1)
            return {frozenset(c) for c in nx.find_cliques(graph)}

        full6, code7 = self.full6, self.code7
        if not isinstance(masks, OpFailure):
            errors += oracle.check_cliques(
                [frozenset(i for i in range(full6.nv) if (m >> i) & 1) for m in masks], None,
                reference(full6), planes_of(full6), "G(6,2)",
                stars=oracle.gaussian_binomial(6, 1), tops=oracle.gaussian_binomial(6, 3),
            )
        if not isinstance(code7_cliques, OpFailure):
            errors += oracle.check_cliques(
                [vids for vids, _ in code7_cliques], [v for _, v in code7_cliques],
                reference(code7), planes_of(code7), "Γ(7,2)₂",
                # the code-graph star over a line is a maximal clique exactly
                # when the line's support has at least k + 1 = 3 coordinates
                stars=oracle.weight_at_least(7, 3),
            )
        return errors


WORKLOADS = {w.name: w for w in (CertifyN4, ClassifyN7, Search)}

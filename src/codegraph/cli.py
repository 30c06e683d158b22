"""Command-line surface.

Subcommands: enum, graph, cliques, hmap-verify, aut, theorem.  All
flags are long-form kebab-case; machine-readable output has a fixed
field order and integral values only, so identical configurations
produce identical bytes (the theorem certificate's wall_ms field is the
one documented exception).

Exit codes: 0 success, 1 falsified assertion (a counterexample was
found), 2 invalid configuration (including an output path that cannot
be written, a `theorem` size other than n = 4, a graph whose adjacency
rows would pass grassmann.MAX_ROW_BYTES and an `aut --direct` outside
1 < k < n-1 or on a full graph of more than DIRECT_MAX_VERTICES
vertices).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import autgroup, cliques, fqlinalg, grassmann, hmap, verify
from .errors import Falsified, ParameterError

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BAD_CONFIG = 2

# the largest full graph aut --direct counts; on a 2-core x86-64 host
# G(6,2) (651 vertices) takes about 5 s, while G(5,2) over F_3 and
# G(6,3) (1210 and 1395 vertices) would take 16-21 s
DIRECT_MAX_VERTICES = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codegraph",
        description="Grassmann graphs, non-degenerate code graphs, clique "
        "taxonomy, and exhaustive embedding certification over small prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, k: bool = True, q: bool = True) -> None:
        p.add_argument("--n", type=int, required=True, help="ambient dimension")
        if k:
            p.add_argument("--k", type=int, default=2, help="subspace dimension")
        if q:
            p.add_argument("--q", type=int, default=2, help="prime field order")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("enum", help="list all k-dimensional subspaces")
    common(p)

    p = sub.add_parser("graph", help="build a graph and report its shape")
    common(p)
    p.add_argument("--nondegenerate", action="store_true", help="restrict to non-degenerate codes")
    p.add_argument("--export", help="write hex adjacency rows here plus a .vertices sidecar")

    p = sub.add_parser("cliques", help="enumerate and classify maximal cliques")
    common(p)
    p.add_argument("--nondegenerate", action="store_true")

    p = sub.add_parser("hmap-verify", help="run the collapse-map assertions")
    common(p, k=False, q=False)

    p = sub.add_parser("aut", help="automorphism group orders")
    common(p)
    p.add_argument("--direct", action="store_true", help="also count both graphs' automorphisms directly")

    p = sub.add_parser("theorem", help="exhaustively certify the classification")
    common(p, k=False, q=False)
    p.add_argument("--witness-dump", help="write one verdict+witness line per embedding")
    return parser


def _kind(ns: argparse.Namespace) -> str:
    return grassmann.KIND_NONDEGENERATE if ns.nondegenerate else grassmann.KIND_FULL


def _cmd_enum(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    subs = fqlinalg.enumerate_subspaces(ns.n, ns.k, ns.q)
    payload = {
        "n": ns.n,
        "k": ns.k,
        "q": ns.q,
        "count": len(subs),
        "subspaces": [[fqlinalg.vector_text(r) for r in s.rows] for s in subs],
    }
    text = [fqlinalg.format_subspace_blocks(subs)]
    return payload, text, EXIT_OK


def _cmd_graph(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    g = grassmann.build_graph(ns.n, ns.k, ns.q, _kind(ns))
    comps = grassmann.connected_components(g)
    payload = {
        "n": g.n,
        "k": g.k,
        "q": g.q,
        "kind": g.kind,
        "vertices": g.nv,
        "edges": g.edge_count,
        "components": len(comps),
        "complete_regime": g.complete_regime,
    }
    text = [
        f"graph {g.kind} n={g.n} k={g.k} q={g.q}",
        f"vertices {g.nv}",
        f"edges {g.edge_count}",
        f"components {len(comps)}",
    ]
    if g.complete_regime:
        text.append("complete graph regime (k is 1 or n-1)")
    if ns.export:
        with open(ns.export, "w", encoding="utf-8") as fh:
            fh.write(grassmann.graph_export_text(g) + "\n")
        with open(ns.export + ".vertices", "w", encoding="utf-8") as fh:
            fh.write(grassmann.vertex_sidecar_text(g) + "\n")
        text.append(f"export written to {ns.export}")
    return payload, text, EXIT_OK


def _cmd_cliques(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    g = grassmann.build_graph(ns.n, ns.k, ns.q, _kind(ns))
    found = cliques.enumerate_maximal_cliques(g)
    counts = {"star": 0, "top": 0, "neither": 0, "star+top": 0}
    for c in found:
        counts[c.verdict] += 1
    falsified = g.kind == grassmann.KIND_FULL and (
        counts["neither"] or counts["star+top"]
    )
    payload = {
        "n": g.n,
        "k": g.k,
        "q": g.q,
        "kind": g.kind,
        "maximal_cliques": len(found),
        "stars": counts["star"],
        "tops": counts["top"],
        "neither": counts["neither"],
        "maximal_stars": sum(1 for c in found if c.is_maximal_star),
        "falsified": bool(falsified),
        "cliques": [
            {
                "verdict": c.verdict,
                "size": c.size,
                "anchor": (c.star_center or c.top_roof).inline_text()
                if (c.star_center or c.top_roof)
                else None,
                "maximal_in_code_graph": c.maximal_in_code_graph,
                "is_maximal_star": c.is_maximal_star,
            }
            for c in found
        ],
    }
    text = [
        f"maximal cliques {len(found)} (stars {counts['star']}, tops {counts['top']}, neither {counts['neither']})"
    ]
    text.extend(cliques.clique_report_rows(found))
    return payload, text, EXIT_FALSIFIED if falsified else EXIT_OK


def _cmd_hmap_verify(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    report = hmap.verify_h(ns.n)
    text = [
        f"collapse map at n={report['n']}: vertices {report['vertices']} "
        f"A={report['class_sizes']['A']} B={report['class_sizes']['B']} C={report['class_sizes']['C']}"
    ]
    for a in report["assertions"]:
        status = "pass" if a["passed"] else "FAIL"
        wit = f" witness={json.dumps(a['witness'])}" if a["witness"] is not None else ""
        text.append(f"{status} {a['name']}{wit}")
    return report, text, EXIT_OK if report["passed"] else EXIT_FALSIFIED


def _cmd_aut(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    gg = autgroup.grassmann_aut_group(ns.n, ns.k, ns.q)
    cg = autgroup.code_graph_aut_group(ns.n, ns.k, ns.q)
    payload = {
        "n": ns.n,
        "k": ns.k,
        "q": ns.q,
        "grassmann_aut_order": gg.order,
        "code_graph_aut_order": cg.order,
    }
    text = [
        f"generated automorphisms of the full graph: {gg.order} ({gg.description})",
        f"generated automorphisms of the code graph: {cg.order} ({cg.description})",
    ]
    code = EXIT_OK
    if ns.direct:
        # the generated groups are Aut only for 1 < k < n-1; the chain
        # count's cost grows with the full graph's vertex count
        if not 1 < ns.k < ns.n - 1:
            raise ParameterError(f"--direct needs 1 < k < n-1, got k={ns.k}, n={ns.n}")
        nv = fqlinalg.gaussian_binomial(ns.n, ns.k, ns.q)
        if nv > DIRECT_MAX_VERTICES:
            raise ParameterError(f"--direct needs at most {DIRECT_MAX_VERTICES} full-graph vertices, got {nv}")
        gfull = grassmann.build_graph(ns.n, ns.k, ns.q, grassmann.KIND_FULL)
        gnd = grassmann.build_graph(ns.n, ns.k, ns.q, grassmann.KIND_NONDEGENERATE)
        direct_full, _ = autgroup.graph_automorphisms(gfull)
        direct_code, _ = autgroup.graph_automorphisms(gnd)
        payload["direct_full"] = direct_full
        payload["direct_code"] = direct_code
        payload["match"] = direct_full == gg.order and direct_code == cg.order
        text.append(f"direct search, full graph: {direct_full}")
        text.append(f"direct search, code graph: {direct_code}")
        if not payload["match"]:
            text.append("MISMATCH between generated and direct counts")
            code = EXIT_FALSIFIED
    return payload, text, code


def _cmd_theorem(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    cert = verify.certify_theorem(ns.n, witness_dump=ns.witness_dump)
    text = [
        f"embeddings {cert['embeddings_total']} "
        f"(extendable {cert['extendable']}, exceptional {cert['exceptional']}, "
        f"unclassified {cert['unclassified']})",
        f"complete {cert['complete']}",
        f"wall_ms {cert['wall_ms']}",
    ]
    for name, tally in cert["lemma_chain"].items():
        text.append(f"{name}: pass {tally['pass']} fail {tally['fail']}")
    return cert, text, EXIT_FALSIFIED if verify.falsified(cert) else EXIT_OK


_COMMANDS = {
    "enum": _cmd_enum,
    "graph": _cmd_graph,
    "cliques": _cmd_cliques,
    "hmap-verify": _cmd_hmap_verify,
    "aut": _cmd_aut,
    "theorem": _cmd_theorem,
}


def run(ns: argparse.Namespace) -> int:
    """Execute one command and write its report; returns the exit code."""
    payload, text, code = _COMMANDS[ns.command](ns)
    body = (
        json.dumps(payload, indent=2) + "\n"
        if ns.format == "json"
        else "\n".join(text) + "\n"
    )
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return run(ns)
    except (ParameterError, OSError) as exc:
        # OSError: an --out, --export or --witness-dump path that cannot be written
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Falsified as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    raise SystemExit(main())

import hashlib
import json

import pytest

from codegraph import cli, grassmann, hmap, verify
from codegraph.errors import Falsified
from codegraph.fqlinalg import enumerate_subspaces, rref, subspace_sum


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# a bounded run certifies the first PREFIX embeddings of the n = 4 stream
PREFIX = 1000


def test_enum_block_count(capsys):
    code, out = run_cli(capsys, ["enum", "--n", "4", "--k", "2", "--q", "2"])
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b.strip()]
    assert len(blocks) == 35


# sha256 of `enum --format json` (stdout) by (n, k, q), computed while
# subspaces were still ordered by a cached flattened copy of their basis
ENUM_PAYLOAD_PINS = {
    (4, 2, 2): "62087359584fec368c0e706d04d03955ed9a64b7cbe36b8b6f11f1cbb2f1d5c8",
    (5, 2, 2): "885077caed33b9d253c86407ed38022d93345069cbc4f9b0397f2448625e1742",
    (5, 3, 2): "df1c5dbd558c46dbd7a3b035feedfc2020d5bc435b69c8d2965d30bce37c48d9",
    (4, 2, 3): "684d439d6869832e0580b98de1b3cfd21676ba16aa150b462a948fd6c15b5494",
    (3, 1, 3): "840a343de4a8893b21bfffb2986335fc08ef89ef2292b3d83bcc471d62fb4789",
    (3, 0, 2): "3df3dd2ecad4d9df8cf5dfa78b2d2682cf611d581572aa70421a94eb460c80f7",
}


@pytest.mark.parametrize("n, k, q", ENUM_PAYLOAD_PINS)
def test_enum_payloads_are_byte_stable(capsys, n, k, q):
    code, out = run_cli(capsys, ["enum", "--n", str(n), "--k", str(k), "--q", str(q), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUM_PAYLOAD_PINS[n, k, q]


# sha256 of the `graph --export` rows and of their .vertices sidecar by
# (n, k, q, kind), computed with the enumeration pins above
EXPORT_PINS = {
    (4, 2, 2, "full"): (
        "e0dc58dccbb1a58b75b061dc96cef392bf8f1979714f53262058fd29778c061e",
        "00c532dc2c466e8bdd95a07a598987f298ddc3fc6edcf08a2c6951025b399ca9",
    ),
    (4, 2, 2, "nondegenerate"): (
        "0177ae79fc7f974ad8241abedf65088f4de83642a805de31e82a1c93de2aa8ec",
        "b88e8b71f0a5a45690f646f44f5055a7026af1966370fcbc7ab662b558a77258",
    ),
    (4, 2, 3, "full"): (
        "7419fd1c31dc267d373e18ce0ed1850d65ab7eb37d9acab5b54660ae5cc174ef",
        "b7f67d79e88595ac4b68f70dffa8091dd37007a8ec52b6c7856b4cff7a058de6",
    ),
}


@pytest.mark.parametrize("n, k, q, kind", EXPORT_PINS)
def test_graph_exports_are_byte_stable(tmp_path, capsys, n, k, q, kind):
    export = tmp_path / "g.adj"
    argv = ["graph", "--n", str(n), "--k", str(k), "--q", str(q), "--export", str(export)]
    code, _ = run_cli(capsys, argv + (["--nondegenerate"] if kind == "nondegenerate" else []))
    assert code == 0
    written = (export.read_bytes(), (tmp_path / "g.adj.vertices").read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in written) == EXPORT_PINS[n, k, q, kind]


def test_graph_reports_13_vertices(capsys):
    code, out = run_cli(
        capsys, ["graph", "--n", "4", "--k", "2", "--q", "2", "--nondegenerate"]
    )
    assert code == 0
    assert "vertices 13" in out


def test_graph_json_and_export(tmp_path, capsys):
    export = tmp_path / "g.adj"
    code, out = run_cli(
        capsys,
        [
            "graph", "--n", "4", "--k", "2", "--q", "2", "--nondegenerate",
            "--format", "json", "--export", str(export),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 13 and payload["kind"] == "NonDegenerate"
    lines = export.read_text().splitlines()
    assert lines[0].startswith("4 2 2 NonDegenerate 13 ")
    sidecar = (tmp_path / "g.adj.vertices").read_text()
    assert sidecar.startswith("# 0\n")


def test_graph_n8_smoke(capsys):
    code, out = run_cli(capsys, ["graph", "--n", "8", "--k", "2", "--q", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 10795 and payload["components"] == 1


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        ["graph", "--n", "4", "--k", "2", "--q", "2", "--format", "json", "--out", str(out_path)],
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["vertices"] == 35


def test_cliques_command(capsys):
    code, out = run_cli(
        capsys,
        ["cliques", "--n", "4", "--k", "2", "--q", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["maximal_cliques"] == 30
    assert payload["stars"] == 15 and payload["tops"] == 15
    assert payload["falsified"] is False


# sha256 of `cliques --format json` (stdout) by (n, k, q, kind), computed
# before classify_clique read a maximal clique from its first edge; the
# (4,1,2) code graph's one clique, the all-ones point alone, is the only
# anchor-less "anchor": null
CLIQUE_PAYLOAD_PINS = {
    (4, 2, 2, "full"): "99c7a150292e1c38f7db407f47104427f151a5af6df8dea9c8f5382a43e5f552",
    (4, 2, 2, "nondegenerate"): "4371ca3ce9dac72c5dc981d739fb402c3e9dcab5c172ef5c829eb73b311c8dda",
    (5, 2, 2, "full"): "79b03db9218d1d849dc1442f2a9b0554003e1e10d16f6854ae8de46bef719196",
    (5, 2, 2, "nondegenerate"): "70a6bb71f63c3198c2e7faef6a566210bb2db9700a7a1e174e4ea83e9c62b2c1",
    (5, 3, 2, "full"): "f2871d0ad2d80eec0919f144b3a8ab63ff078c6a07f580cc10cb214db096ab92",
    (5, 3, 2, "nondegenerate"): "9f6a9125edc4f510941fc70945659beb6d8698abf5b870094b8e6917b4384d6f",
    (4, 2, 3, "full"): "0882707d598463b9a202c75c5c633c9df6275f4517dc8024a4e2bde448758182",
    (4, 2, 3, "nondegenerate"): "97d17c03dc569fa3631e0609babfaa7592a2707be01aa7db42eaeddb7c5e82c2",
    (4, 1, 2, "full"): "38f11a47d77c2dae38c587d17fb88ffaeb46f36d72a6ab5c7b2942d2d2c6b8f5",
    (4, 1, 2, "nondegenerate"): "76d01553582ac470cc2372112b73a6cab662658e27aeb7351418443f6eb75fbb",
    (4, 3, 2, "full"): "53d962619bd5267cac4bb2be4c62a9df92b6a22cea54a49d54f1c7335bb92ea7",
    (4, 3, 2, "nondegenerate"): "1afc80e75bcdf2eddec866aed277e8d602e07ac7c703a6019ff738e7124ade1b",
    (3, 1, 3, "full"): "4fd0a4a291592ca339886ffb6a96b7a47f13cdad84ba2be76465e90d039613ba",
    (3, 1, 3, "nondegenerate"): "8608b1435afa7cb070e7bac6fd540f2f85f610ff8d18d1be2e98e21487aa698f",
    (6, 2, 2, "nondegenerate"): "10fffe3b2af0e0ee8d394d2259b642d168cd85c10f763ab724016ede8f814eda",
}


@pytest.mark.parametrize("n, k, q, kind", CLIQUE_PAYLOAD_PINS)
def test_clique_payloads_are_byte_stable(capsys, n, k, q, kind):
    argv = ["cliques", "--n", str(n), "--k", str(k), "--q", str(q), "--format", "json"]
    code, out = run_cli(capsys, argv + (["--nondegenerate"] if kind == "nondegenerate" else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLIQUE_PAYLOAD_PINS[n, k, q, kind]


@pytest.mark.parametrize(
    "q, kind, stars_and_tops",
    [(2, "full", 1), (3, "full", 1), (3, "nondegenerate", 1), (2, "nondegenerate", 0)],
)
def test_the_complete_graph_of_points_of_the_plane_is_star_and_top(capsys, q, kind, stars_and_tops):
    # G(2,1)_q is complete: its one maximal clique is both the star over
    # the zero space and the top F_q^2, counted under both and no
    # counterexample; the (2,1,2) code graph is the one point (1,1), a
    # one-member clique and so "neither"
    argv = ["cliques", "--n", "2", "--k", "1", "--q", str(q), "--format", "json"]
    code, out = run_cli(capsys, argv + (["--nondegenerate"] if kind == "nondegenerate" else []))
    payload = json.loads(out)
    assert code == 0 and payload["falsified"] is False
    assert payload["maximal_cliques"] == 1
    assert payload["stars"] == payload["tops"] == stars_and_tops
    assert payload["neither"] == 1 - stars_and_tops
    assert payload["cliques"][0]["verdict"] == ("star+top" if stars_and_tops else "neither")


def test_hmap_verify_ok(capsys):
    code, out = run_cli(capsys, ["hmap-verify", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["class_sizes"] == {"A": 7, "B": 3, "C": 3}


def test_graph_text_names_the_complete_regime(capsys):
    code, out = run_cli(capsys, ["graph", "--n", "4", "--k", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "complete graph regime (k is 1 or n-1)"
    code, out = run_cli(capsys, ["graph", "--n", "4", "--k", "2"])
    assert code == 0 and "complete graph regime" not in out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["aut", "--n", "4", "--k", "4"], "need 1 <= k <= n-1, got k=4, n=4"),
        # full G(7,2) has 2667 vertices
        (["cliques", "--n", "7"], "clique enumeration needs at most 2000 vertices, got 2667"),
    ],
    ids=["aut-k-equals-n", "cliques-past-the-vertex-cap"],
)
def test_documented_refusals_exit_2(capsys, argv, reason):
    code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"invalid configuration: {reason}\n"


def test_aut_command(capsys):
    code, out = run_cli(
        capsys, ["aut", "--n", "4", "--k", "2", "--q", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grassmann_aut_order"] == 40320
    assert payload["code_graph_aut_order"] == 24
    # the text form names each generated group
    for q, full, code_graph in (
        (2, "40320 (PGL with orthocomplement(4,2))", "24 (monomial(4,2))"),
        (3, "24261120 (PGL with orthocomplement(4,3))", "192 (monomial(4,3))"),
    ):
        code, out = run_cli(capsys, ["aut", "--n", "4", "--k", "2", "--q", str(q)])
        assert code == 0
        assert out.splitlines() == [
            f"generated automorphisms of the full graph: {full}",
            f"generated automorphisms of the code graph: {code_graph}",
        ]


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (7, 2)])
def test_aut_direct_outside_its_scope_exit_2(capsys, monkeypatch, n, k):
    # (3,1) and (4,1) lie outside 1 < k < n-1, where the generated group
    # is not Aut; full G(7,2) has 2667 vertices, past the vertex guard
    # on --direct
    def no_search(g):
        raise AssertionError("the direct search must not start")

    monkeypatch.setattr(cli.autgroup, "graph_automorphisms", no_search)
    code = cli.main(["aut", "--n", str(n), "--k", str(k), "--direct"])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_aut_direct_counts_g52(capsys):
    code, out = run_cli(capsys, ["aut", "--n", "5", "--k", "2", "--direct", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["direct_full"] == payload["grassmann_aut_order"] == 9999360
    assert payload["match"] is True


def test_aut_direct_mismatch_reaches_exit_1(capsys, monkeypatch):
    # fault: the chain counts one automorphism too many, so the direct
    # counts disagree with the generated orders
    real = cli.autgroup.graph_automorphisms

    def off_by_one(g):
        found, transversals = real(g)
        return found + 1, transversals

    monkeypatch.setattr(cli.autgroup, "graph_automorphisms", off_by_one)
    argv = ["aut", "--n", "4", "--k", "2", "--direct"]
    code, out = run_cli(capsys, argv + ["--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["direct_full"] == payload["grassmann_aut_order"] + 1
    assert payload["match"] is False
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert out.splitlines()[-1] == "MISMATCH between generated and direct counts"


def test_invalid_config_exit_2(capsys):
    code = cli.main(["enum", "--n", "3", "--k", "2", "--q", "9"])
    assert code == 2
    code = cli.main(["graph", "--n", "4", "--k", "0", "--q", "2"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph", "--n", "4", "--unknown-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--n", "4", "--out", "{missing}/report.txt"],
        ["graph", "--n", "4", "--export", "{missing}/g.adj"],
        ["theorem", "--n", "4", "--witness-dump", "{missing}/w.txt"],
    ],
    ids=["out", "export", "witness-dump"],
)
def test_unwritable_output_path_exit_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code = cli.main([a.format(missing=missing) for a in argv])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_theorem_budget_flag_is_a_usage_error():
    # the search reads no clock, so there is no budget to pass
    with pytest.raises(SystemExit) as exc:
        cli.main(["theorem", "--n", "4", "--budget-secs", "1"])
    assert exc.value.code == 2


def test_theorem_n5_exit_2_before_any_search(capsys, monkeypatch):
    # the exhaustive search stalls at n = 5, so the run is refused
    # before a context is built or a search starts
    def no_search(*args, **kwargs):
        raise AssertionError("no search may start")

    monkeypatch.setattr(verify, "build_context", no_search)
    monkeypatch.setattr(verify, "backtrack", no_search)
    code = cli.main(["theorem", "--n", "5"])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_graph_past_the_row_cap_exit_2_before_listing(capsys, monkeypatch):
    # G(11,2) passes the ambient and listing caps, but its 698,027
    # bitmask rows would take about 57 GiB
    def no_listing(*args, **kwargs):
        raise AssertionError("the subspaces must not be listed")

    monkeypatch.setattr(grassmann, "enumerate_subspaces", no_listing)
    code = cli.main(["graph", "--n", "11", "--k", "2", "--q", "2"])
    assert code == 2
    assert "GiB cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (
            ["graph", "--n", "7", "--k", "3", "--q", "3", "--nondegenerate"],
            "the adjacency rows of a 712656-vertex graph at (7,3,3) would take 59.1 GiB, past the 1 GiB cap",
        ),
        (["cliques", "--n", "9", "--k", "2"], "clique enumeration needs at most 2000 vertices, got 43435"),
    ],
    ids=["code-graph-rows", "cliques-vertices"],
)
def test_capped_runs_exit_2_from_the_vertex_count_before_listing(capsys, monkeypatch, argv, reason):
    # both were refused only after listing 925,771 and 43,435 subspaces
    def no_listing(*args, **kwargs):
        raise AssertionError("the subspaces must not be listed")

    monkeypatch.setattr(grassmann, "enumerate_subspaces", no_listing)
    code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"invalid configuration: {reason}\n"


def test_theorem_full_run_exit_0(tmp_path, capsys, certificate4):
    dump = tmp_path / "witnesses.txt"
    code, out = run_cli(
        capsys, ["theorem", "--n", "4", "--format", "json", "--witness-dump", str(dump)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True and payload["embeddings_total"] == 80640
    # the same certificate, field order included, as the library call
    expected = {k: v for k, v in certificate4.items() if k != "wall_ms"}
    payload.pop("wall_ms")
    assert list(payload) == list(expected) and payload == expected
    lines = [line.split(" ", 2) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert [int(parts[0]) for parts in lines] == list(range(80640))
    verdicts = [parts[1] for parts in lines]
    for kind in ("extendable", "exceptional", "unclassified"):
        assert verdicts.count(kind) == payload[kind]


def test_injected_adjacency_fault_reaches_exit_1(capsys, monkeypatch):
    # mutate adjacency under the verifier: flip the answer for one pair
    # of image planes so the forward-preservation assertion fails
    real = hmap.is_adjacent
    state = {}

    def mutated(x, y):
        out = real(x, y)
        if out and "flipped" not in state:
            state["flipped"] = (x, y)
            return False
        return out

    monkeypatch.setattr(hmap, "is_adjacent", mutated)
    code, out = run_cli(capsys, ["hmap-verify", "--n", "4", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    by_name = {a["name"]: a for a in payload["assertions"]}
    assert by_name["adjacency_preserved_forward"]["passed"] is False


def test_injected_collision_fault_reaches_exit_1(capsys, monkeypatch):
    # corrupt the collapse map so two vertices collide; the verifier must
    # report the broken assertion and the command must exit 1
    real = hmap.h_map
    bucket = {}

    def corrupted(x):
        out = real(x)
        if x.n == 4:
            key = "first"
            if key not in bucket:
                bucket[key] = out
            else:
                return bucket[key]
        return out

    monkeypatch.setattr(hmap, "h_map", corrupted)
    code, out = run_cli(capsys, ["hmap-verify", "--n", "4", "--format", "json"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def falsified_run(capsys, argv) -> str:
    """Run the CLI, check that it stops with exit 1 through a Falsified
    exception, before any report is written, and return the message."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("falsified: ")
    return captured.err[len("falsified: "):].rstrip("\n")


def test_class_c_disagreement_reaches_exit_1(capsys, monkeypatch):
    # fault: the structural reading finds no C-class code, so it disagrees
    # with the set-theoretic reading on the first C-class plane
    monkeypatch.setattr(hmap, "_structural_c_decomposition", lambda x, frame: None)
    message = falsified_run(capsys, ["hmap-verify", "--n", "4"])
    assert message.startswith("class-C membership disagreement on ")
    assert message.endswith("set-theoretic=True, structural=False")


# Stand-ins for the ``subspace_sum`` that builds a C-class plane's
# companion from the twins a and b of its two lines outside H, each
# breaking one of ``h_map``'s postconditions at n = 4.


def planes_of_h() -> list:
    return [y for y in enumerate_subspaces(4, 2, 2) if hmap.special_frame(4).H.contains(y)]


def escaping_companion(a, b):
    # the twins of a and b span the C-class plane itself, which leaves H
    return subspace_sum(*(hmap.p_copoint(hmap.line_support(p), 4) for p in (a, b)))


def nondegenerate_companion(a, b):
    return next(y for y in planes_of_h() if grassmann.is_nondegenerate(y))


def companion_missing_the_inside_line(a, b):
    # the C-class plane meets H in the line of a + b, which this plane misses
    t = rref([tuple(u ^ v for u, v in zip(a.rows[0], b.rows[0]))])
    return next(y for y in planes_of_h() if not grassmann.is_nondegenerate(y) and not y.contains(t))


@pytest.mark.parametrize(
    "fault, message",
    [
        (escaping_companion, "companion escaped the hyperplane"),
        (nondegenerate_companion, "companion is unexpectedly non-degenerate"),
        (companion_missing_the_inside_line, "companion meets x in the wrong line"),
    ],
    ids=["escaped", "nondegenerate", "wrong-line"],
)
def test_collapse_postconditions_reach_exit_1(capsys, monkeypatch, fault, message):
    monkeypatch.setattr(hmap, "subspace_sum", fault)
    assert falsified_run(capsys, ["hmap-verify", "--n", "4"]) == message


def test_point_map_spanning_no_line_reaches_exit_1(capsys, monkeypatch):
    # fault: the point map fixes e_1, which lies outside H and should go to
    # its twin, so some plane through e_1 goes to three independent points
    real = hmap.projective_morphism
    e1 = hmap.p_point({1}, 4)
    monkeypatch.setattr(hmap, "projective_morphism", lambda p: p if p == e1 else real(p))
    code, out = run_cli(capsys, ["hmap-verify", "--n", "4", "--format", "json"])
    assert code == 1
    by_name = {a["name"]: a for a in json.loads(out)["assertions"]}
    assert [name for name, a in by_name.items() if not a["passed"]] == ["point_map_morphism_noninjective"]
    witness = by_name["point_map_morphism_noninjective"]["witness"]
    assert witness["reason"] == "image spans no line"
    assert witness["line"] in {w.inline_text() for w in enumerate_subspaces(4, 2, 2) if w.contains(e1)}


def test_soundness_failure_reaches_exit_1_without_a_verdict(tmp_path, capsys, monkeypatch):
    # fault: the search yields the identity embedding, then a map that
    # sends two code planes to one image; the recheck must reject the
    # second before it is normalized, classified or dumped
    def stream(ctx, order):
        collision = list(ctx.gid)
        collision[1] = collision[0]
        return iter([ctx.gid, tuple(collision)])

    monkeypatch.setattr(verify, "_embeddings", stream)
    dump = tmp_path / "witnesses.txt"
    code, out = run_cli(capsys, ["theorem", "--n", "4", "--format", "json", "--witness-dump", str(dump)])
    assert code == 1
    payload = json.loads(out)
    counts = {
        key: payload[key]
        for key in ("embeddings_total", "soundness_failures", "extendable", "exceptional", "unclassified")
    }
    assert counts == {
        "embeddings_total": 2, "soundness_failures": 1, "extendable": 1, "exceptional": 0, "unclassified": 0,
    }
    assert payload["lemma_chain"]["normalize"] == {"pass": 1, "fail": 0}
    assert [line.split()[:2] for line in dump.read_text(encoding="utf-8").splitlines()] == [["0", "extendable"]]


def test_falsified_exception_reaches_exit_1(capsys, monkeypatch):
    # fault: the group fields refute the premise, which they report by
    # raising; the run must end with exit 1 and no report
    def refuted(ctx):
        raise Falsified("injected refutation")

    monkeypatch.setattr(verify, "group_fields", refuted)
    assert falsified_run(capsys, ["theorem", "--n", "4"]) == "injected refutation"


def test_machine_output_is_byte_identical(capsys):
    argv = ["cliques", "--n", "4", "--k", "2", "--q", "2", "--format", "json"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2
    argv = ["enum", "--n", "5", "--k", "1", "--q", "2", "--format", "json"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2


def test_theorem_json_deterministic_modulo_wall_ms(capsys, bound_stream):
    # wall-clock timing is the documented exception to byte stability
    bound_stream(PREFIX)
    argv = ["theorem", "--n", "4", "--format", "json"]
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)

    def strip_wall(text):
        payload = json.loads(text)
        payload.pop("wall_ms")
        return payload

    assert strip_wall(out1) == strip_wall(out2)


def test_witness_dump(tmp_path, capsys, bound_stream):
    bound_stream(PREFIX)
    dump = tmp_path / "witnesses.txt"
    code, out = run_cli(
        capsys, ["theorem", "--n", "4", "--format", "json", "--witness-dump", str(dump)]
    )
    assert code == 0
    assert json.loads(out)["embeddings_total"] == PREFIX
    lines = [line.split() for line in dump.read_text().splitlines()]
    assert [int(parts[0]) for parts in lines] == list(range(PREFIX))
    assert all(parts[1] in ("extendable", "exceptional") for parts in lines)


def test_broken_constructive_witness_reaches_exit_1(capsys, monkeypatch, bound_stream):
    # fault: every inverse the constructive route uses is corrupted, so
    # no witness reproduces its embedding
    real = verify._normalize_ids

    def corrupted(ctx, images):
        fp, cols, inv_cols, dual = real(ctx, images)
        return fp, cols, (inv_cols[0] ^ inv_cols[1],) + inv_cols[1:], dual

    monkeypatch.setattr(verify, "_normalize_ids", corrupted)
    bound_stream(PREFIX)
    code, out = run_cli(capsys, ["theorem", "--n", "4", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["embeddings_total"] == PREFIX
    assert payload["witness_failures"] == payload["unclassified"] == PREFIX


def test_bounded_run_tallies_every_embedding_once(capsys, bound_stream):
    # the memoized chain reports are folded into the tallies after the
    # loop; a run over a bounded stream must still count each embedding
    bound_stream(PREFIX)
    code, out = run_cli(capsys, ["theorem", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    chain = payload["lemma_chain"]
    total = payload["embeddings_total"]
    assert total == chain["normalize"]["pass"] == PREFIX
    for key, tally in chain.items():
        assert tally["pass"] + tally["fail"] == total, key

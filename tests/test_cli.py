"""End-to-end runs of the command-line driver, in-process via main(argv).

Exit code contract: 0 every check passed, 1 some property failed (the report
carries the witness), 2 operational errors such as missing flags, a composite
modulus, or an exceeded search budget.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import chibound.claims as claims
import chibound.cli as cli
import chibound.graphs
import chibound.power
from chibound import Budget, build_power_graph, build_zykov, read_edgelist, write_edgelist
from chibound.cli import main
from chibound.formats import _read_lines
from chibound.power import BUILTIN_F
from helpers import read_outcome

PASS, FAIL, OPERATIONAL = 0, 1, 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ----------------------------------------------------------------- construct


def test_construct_zykov_to_file(tmp_path, capsys):
    out = tmp_path / "g3.edges"
    code, _, err = run(capsys, "construct", "zykov", "--k", "3", "--out", str(out))
    assert code == PASS
    assert "built: 5 vertices, 5 edges" in err
    text = out.read_text()
    assert "n 5 5\n" in text
    assert "# config:" in text and "# input-sha256:" in text
    prov = json.loads((tmp_path / "g3.edges.provenance.json").read_text())
    assert prov["k"] == 3
    assert prov["vertices"][0] == {"copy": 1, "level": 1, "transversal": None}


def test_construct_zykov_stdout(capsys):
    code, out, _ = run(capsys, "construct", "zykov", "--k", "2")
    assert code == PASS
    assert "n 2 1\n" in out and "\n1 0\n" in out  # apex 1 points into copy 0


def test_construct_power_json(capsys):
    code, doc, _ = run_json(
        capsys, "construct", "power", "--k", "3", "--p", "2", "--format", "json"
    )
    assert code == PASS
    g = doc["graph"]
    assert g["p"] == 2
    assert g["n"] == 5
    assert all(len(e) == 3 and e[2] == 1 for e in g["edges"])
    assert doc["config"]["command"] == "construct power"


def test_construct_power_from_growth_table(capsys):
    # --f/--n derives the modulus (largest prime at or below n) and the level
    code, doc, _ = run_json(
        capsys, "construct", "power", "--f", "2^n", "--n", "2", "--format", "json"
    )
    assert code == PASS
    assert doc["config"]["parameters"]["p"] == 2
    assert doc["config"]["parameters"]["k"] == 4
    assert doc["graph"]["n"] == 18
    assert doc["class_parameters"]["g"] == {"2": 4}


def test_construct_power_f_from_json_file(tmp_path, capsys):
    table = tmp_path / "f.json"
    table.write_text(json.dumps({"2": 3, "3": 3}))
    code, doc, _ = run_json(
        capsys, "construct", "power", "--f", str(table), "--n", "3", "--format", "json"
    )
    assert code == PASS
    assert doc["config"]["parameters"]["p"] == 3
    assert doc["config"]["parameters"]["k"] == 3
    assert doc["graph"]["n"] == 5


@pytest.mark.parametrize("text", ["[1, 2]", "null", '{"2": [3]}', '{"2": 1e400}', '{"2": 2.7}', '{"2": true}'])
def test_construct_refuses_a_growth_table_that_is_not_an_object_of_integers(tmp_path, capsys, text):
    table = tmp_path / "f.json"
    table.write_text(text)
    code, out, err = run(capsys, "construct", "power", "--f", str(table), "--n", "3")
    assert code == OPERATIONAL and out == ""
    assert err == f"error: growth table {table} is not a JSON object of integers {{order: value}}\n"


def test_construct_power_reads_a_growth_table_on_the_witness_interval_only(tmp_path, capsys):
    # p = 7 and k = max f over 7..10 = 4; the 9s below 7 would ask for a
    # level above the size cap, and the block lists only the interval
    table = tmp_path / "f.json"
    table.write_text(json.dumps({"2": 9, "3": 9, "4": 9, "5": 9, "6": 9, "7": 2, "8": 4, "9": 3, "10": 1, "11": 9}))
    code, doc, _ = run_json(capsys, "construct", "power", "--f", str(table), "--n", "10", "--format", "json")
    assert code == PASS
    assert (doc["config"]["parameters"]["p"], doc["config"]["parameters"]["k"]) == (7, 4)
    assert doc["class_parameters"] == {
        "n_max": 10,
        "f_table": {"7": 2, "8": 4, "9": 3, "10": 1},
        "primes": [7, 11],
        "g": {"7": 4},
    }


@pytest.mark.parametrize(
    "text, n, message",
    [
        ('{"2": 4, "4": 16}', "4", "f is not defined at 3"),
        ('{"2": 4, "4": 16}', "1", "need n_max >= 2, got 1"),
        ('{"3": 4}', "3", "f is not defined at 2"),
        ("[2]", "1", None),
    ],
)
def test_construct_refuses_a_growth_table_with_a_hole_or_a_domain_below_two(tmp_path, capsys, text, n, message):
    table = tmp_path / "f.json"
    table.write_text(text)
    code, out, err = run(capsys, "construct", "power", "--f", str(table), "--n", n)
    if message is None:  # the table's shape is refused before the order
        message = f"growth table {table} is not a JSON object of integers {{order: value}}"
    assert code == OPERATIONAL and out == ""
    assert err == f"error: {message}\n"


# sha256 of the stdout of `construct zykov --k K --format json`, K = 1..5, and of
# the `.provenance.json` sidecar of `construct zykov --k 4 --out F`, recorded
# while every vertex's provenance was still tagged during the build
PINNED_ZYKOV_JSON_SHA256 = {
    1: "9def85e6dd126cdf8f8ffe57786cc9d43963013f53c98b7137336465a5651621",
    2: "9e58168e8f58bcc92197bbd3c4b49ad8ff49640965eb686b809ef03e0df31208",
    3: "8fb610e47c1934decf5bf729b14eaa232c494a4c301ea6dc901b777e2f905199",
    4: "0b3fde109355d5eba82c4512d6ac6c81a6fdaab0ece4745faa2c880005393512",
    5: "ae06ba8b71509f63eacc1c85a546083f4bd68ccebaa60a5a98f478b3afb6cd9d",
}
PINNED_ZYKOV4_SIDECAR_SHA256 = "c7098468cc78dfde4d17a1003220c9ad80924c92e6741e628e9ce598cb64e320"


@pytest.mark.parametrize("k", sorted(PINNED_ZYKOV_JSON_SHA256))
def test_construct_zykov_json_bytes_are_pinned(capsys, k):
    code, out, _ = run(capsys, "construct", "zykov", "--k", str(k), "--format", "json")
    assert code == PASS
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ZYKOV_JSON_SHA256[k]


def test_construct_zykov_provenance_sidecar_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "g4.edges"
    assert run(capsys, "construct", "zykov", "--k", "4", "--out", str(out))[0] == PASS
    sidecar = (tmp_path / "g4.edges.provenance.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == PINNED_ZYKOV4_SIDECAR_SHA256


def test_construct_dimacs(capsys):
    code, out, _ = run(capsys, "construct", "zykov", "--k", "3", "--format", "dimacs")
    assert code == PASS
    lines = out.splitlines()
    assert lines[0].startswith("c config:")
    assert "p edge 5 5" in lines
    assert sum(1 for l in lines if l.startswith("e ")) == 5


def test_construct_errors(capsys):
    code, _, err = run(capsys, "construct", "power", "--k", "3", "--p", "4")
    assert code == OPERATIONAL and "error:" in err
    code, _, err = run(capsys, "construct", "zykov")
    assert code == OPERATIONAL and "--k" in err
    code, _, err = run(capsys, "construct", "power", "--f", "2^n")
    assert code == OPERATIONAL and "--n" in err
    code, _, err = run(capsys, "construct", "zykov", "--k", "4", "--size-cap", "10")
    assert code == OPERATIONAL and "error:" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["construct", "zykov", "--k", "3", "--p", "5"], "--p"),
        (["construct", "zykov", "--k", "3", "--n", "2"], "--n"),
        (["construct", "zykov", "--k", "3", "--f", "n^2"], "--f"),
        (["construct", "power", "--k", "3", "--p", "5", "--n", "4"], "--n"),
        (["construct", "power", "--f", "2^n", "--n", "2", "--k", "3"], "--k"),
        (["construct", "power", "--f", "2^n", "--n", "2", "--p", "5"], "--p"),
        (["verify", "lemma21", "--k", "3", "--p", "5"], "--p"),
        (["verify", "lemma21", "--k", "3", "--n", "2"], "--n"),
        (["verify", "lemma22", "--k", "3", "--p", "5", "--n", "2"], "--n"),
        (["verify", "lemma24", "--p", "5", "--k", "9"], "--k"),
        (["verify", "lemma24", "--p", "5", "--budget-nodes", "7"], "--budget-nodes"),
        (["verify", "lemma24", "--p", "5", "--budget-ms", "7"], "--budget-ms"),
        (["verify", "claim26", "--k", "3", "--p", "5", "--n", "2", "--budget-nodes", "7"], "--budget-nodes"),
        (["verify", "claim26", "--k", "3", "--p", "5", "--n", "2", "--budget-ms", "5"], "--budget-ms"),
        (["color", "FILE", "--k", "9"], "--k"),
        (["color", "FILE", "--n", "2", "--k", "9"], "--k"),
        (["color", "FILE", "--n", "2", "--budget-nodes", "3"], "--budget-nodes"),
        (["color", "FILE", "--n", "2", "--budget-ms", "3"], "--budget-ms"),
        (["color", "--k", "3", "--p", "5", "--n", "2", "--budget-nodes", "3"], "--budget-nodes"),
        (["color", "--k", "3", "--p", "5", "--n", "2", "--budget-ms", "3"], "--budget-ms"),
        (["sample-hereditary", "FILE", "--k", "9"], "--k"),
    ],
)
def test_construct_refuses_an_option_it_does_not_read(tmp_path, capsys, argv, flag):
    # every command refuses such an option before it builds, reads or writes
    # anything, so that it never enters the report's config bytes
    pg = build_power_graph(build_zykov(3), 5)
    path = tmp_path / "g.edges"
    path.write_text(write_edgelist(pg.graph, pg.labels, metadata={"p": 5}))
    out = tmp_path / "report"
    code, stdout, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv], "--out", str(out))
    assert code == OPERATIONAL and stdout == ""
    assert err.startswith("error: ") and f" does not read {flag}" in err and err.count("\n") == 1
    assert not out.exists()


def test_construct_refuses_a_huge_tower_before_printing_its_size(capsys):
    # --f n^2 --n 4 asks for level g(3) = 16, whose vertex count has 4,681
    # digits, and --n 6 for level g(5) = 36; each is refused at level 7, the
    # first above the cap, without computing its own size. --f 2^n --n 20000
    # asks for level 2^20000, a number too long for a JSON config. At
    # --n 1000000, f is read on 999983..1000000 alone, never on the whole
    # domain, whose table of 2^n would take about 60 GB
    started = time.perf_counter()
    tracemalloc.start()
    try:
        for argv in (
            ("power", "--f", "n^2", "--n", "4"),
            ("power", "--f", "n^2", "--n", "6"),
            ("power", "--f", "2^n", "--n", "20000"),
            ("power", "--f", "2^n", "--n", "1000000"),
            ("power", "--f", "n^2", "--n", "1000000"),
            ("zykov", "--k", "16"),
        ):
            code, out, err = run(capsys, "construct", *argv)
            assert code == OPERATIONAL and out == ""
            assert err == "error: predicted size at least 1383566504 vertices exceeds cap 1000000\n"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 5
    assert peak < 32 * 2**20


# -------------------------------------------------------------------- verify


def test_verify_lemma21(capsys):
    code, doc, err = run_json(capsys, "verify", "lemma21", "--k", "3")
    assert code == PASS
    checks = [r["check"] for r in doc["reports"]]
    assert checks == ["chromatic-number", "triangle-free", "unique-paths"]
    assert all(r["verdict"] == "pass" for r in doc["reports"])
    assert "[pass] chromatic-number" in err


def test_verify_lemma22_prime_two_adds_triangle_check(capsys):
    code, doc, _ = run_json(capsys, "verify", "lemma22", "--k", "4", "--p", "2")
    assert code == PASS
    checks = [r["check"] for r in doc["reports"]]
    assert checks == ["clique-bound", "triangle-free"]
    clique = doc["reports"][0]["witness"]
    assert clique["omega"] <= clique["p"] == 2


def test_verify_lemma24_defaults_order(capsys):
    code, doc, _ = run_json(capsys, "verify", "lemma24", "--p", "7")
    assert code == PASS
    assert [r["check"] for r in doc["reports"]] == ["partition-cover", "partition-sums"]
    assert all("n=6" in r["instance"] for r in doc["reports"])


@pytest.mark.parametrize("order", ["-3", "0"])
def test_verify_lemma24_refuses_an_order_below_one(capsys, order):
    code, out, err = run(capsys, "verify", "lemma24", "--p", "7", "--n", order)
    assert code == OPERATIONAL and out == ""
    assert err == f"error: order n={order} must satisfy 1 <= n <= p-1 for p=7\n"


def test_verify_lemma24_refuses_an_order_at_or_above_the_modulus(capsys):
    code, out, err = run(capsys, "verify", "lemma24", "--p", "7", "--n", "9")
    assert code == OPERATIONAL and out == ""
    assert err == "error: order n=9 must satisfy 1 <= n <= p-1 for p=7\n"
    code, doc, _ = run_json(capsys, "verify", "lemma24", "--p", "7", "--n", "6")
    assert code == PASS and doc["config"]["parameters"]["n"] == 6
    assert all("n=6" in r["instance"] for r in doc["reports"])


# each command that meets an order n outside 1..p-1, with that n and p
_ORDER_REFUSALS = [
    (["verify", "claim26", "--k", "3", "--p", "3"], 3, 3),
    (["verify", "claim26", "--k", "4", "--p", "5", "--n", "5"], 5, 5),
    (["color", "--k", "3", "--p", "3"], 3, 3),
    (["color", "FILE", "--n", "5"], 5, 5),
    (["verify", "lemma24", "--p", "7", "--n", "9"], 9, 7),
    (["verify", "claim26", "--k", "3", "--p", "5", "--n", "0"], 0, 5),
    (["verify", "all", "--k", "3", "--p", "5", "--n", "0"], 0, 5),
    (["color", "--k", "3", "--p", "5", "--n", "0"], 0, 5),
]


@pytest.mark.parametrize("argv, n, p", _ORDER_REFUSALS, ids=[" ".join(a) for a, _, _ in _ORDER_REFUSALS])
def test_every_order_refusal_prints_one_message(tmp_path, capsys, argv, n, p):
    path = tmp_path / "g.edges"
    path.write_text("# p: 5\nn 3 1\n0 1 1\n")
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == OPERATIONAL and out == ""
    assert err == f"error: order n={n} must satisfy 1 <= n <= p-1 for p={p}\n"


def test_verify_lemma24_ends_in_bounded_time_near_the_size_cap(capsys):
    started = time.process_time()
    code, doc, _ = run_json(capsys, "verify", "lemma24", "--p", "999983", "--n", "6")
    assert code == PASS and [r["verdict"] for r in doc["reports"]] == ["pass", "pass"]
    assert time.process_time() - started < 5


@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param("--budget-nodes", "-1", id="--budget-nodes"),
        pytest.param("--budget-ms", "-1", id="--budget-ms"),
        # a time cap that is not finite would replace the default node cap and stop nothing
        pytest.param("--budget-ms", "nan", id="--budget-ms-nan"),
        pytest.param("--budget-ms", "inf", id="--budget-ms-inf"),
    ],
)
def test_negative_budget_is_refused(capsys, flag, value):
    code, out, err = run(capsys, "verify", "lemma21", "--k", "3", flag, value)
    assert code == OPERATIONAL and out == ""
    problem = "nonnegative" if value == "-1" else "finite"
    assert err.startswith(f"error: {flag} must be {problem}") and err.count("\n") == 1


def test_verify_claim26_passes_with_measured_clique(capsys):
    code, doc, _ = run_json(capsys, "verify", "claim26", "--k", "4", "--p", "5")
    assert code == PASS
    checks = {r["check"] for r in doc["reports"]}
    assert checks == {"no-long-path", "proper-coloring", "palette-bound"}
    assert sum(1 for r in doc["reports"] if r["check"] == "no-long-path") == 6
    assert doc["config"]["parameters"]["n"] == 4


def test_verify_claim26_understated_clique_yields_witness(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "claim26", "--k", "3", "--p", "5", "--n", "2"
    )
    assert code == FAIL
    failing = [r for r in doc["reports"] if r["verdict"] == "fail"]
    assert failing
    assert failing[0]["witness"]["clique"] == [1, 2, 4]


def test_verify_claim26_clique_at_modulus_is_operational(capsys):
    code, _, err = run(capsys, "verify", "claim26", "--k", "3", "--p", "3")
    assert code == OPERATIONAL
    assert "must satisfy 1 <= n <= p-1" in err


def test_verify_all_skips_inapplicable_coloring(capsys):
    code, doc, err = run_json(capsys, "verify", "all", "--k", "3", "--p", "3")
    assert code == PASS
    assert "skipping class-path checks" in err
    checks = {r["check"] for r in doc["reports"]}
    assert "no-long-path" not in checks
    assert {"chromatic-number", "clique-bound", "partition-cover"} <= checks


def test_verify_all_full_stack(capsys):
    code, doc, _ = run_json(capsys, "verify", "all", "--k", "3", "--p", "5")
    assert code == PASS
    checks = [r["check"] for r in doc["reports"]]
    assert checks == sorted(checks)
    assert all(r["verdict"] == "pass" for r in doc["reports"])


def test_verify_missing_flags(capsys):
    code, _, err = run(capsys, "verify", "lemma22", "--k", "3")
    assert code == OPERATIONAL and "needs --p" in err
    code, _, err = run(capsys, "verify", "lemma21")
    assert code == OPERATIONAL and "needs --k" in err


def test_verify_budget_exceeded_exit_code(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "lemma21", "--k", "4", "--budget-nodes", "1"
    )
    assert code == OPERATIONAL
    by_check = {r["check"]: r for r in doc["reports"]}
    assert by_check["chromatic-number"]["verdict"] == "budget-exceeded"
    assert by_check["triangle-free"]["verdict"] == "pass"
    assert by_check["chromatic-number"]["witness"]["best_upper"] >= 4


def test_verify_budget_exceeded_report_has_wall_time(capsys):
    code, _, err = run(capsys, "verify", "lemma21", "--k", "5", "--budget-nodes", "300")
    assert code == OPERATIONAL
    line = re.search(r"\[budget-exceeded\] chromatic-number on zykov\(k=5\) \(([0-9.]+) ms\)", err)
    assert line and float(line.group(1)) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--k", "3", "--p", "5"],
        ["verify", "all", "--k", "3", "--p", "5", "--n", "2"],
        ["verify", "claim26", "--k", "3", "--p", "5"],
        ["verify", "lemma22", "--k", "3", "--p", "5"],
        ["verify", "lemma21", "--k", "3"],
    ],
)
def test_verify_builds_each_instance_once(monkeypatch, capsys, argv):
    # the cli builds the instances, and claims.py searches the clique
    owners = {"build_zykov": cli, "zykov_closure": cli, "build_power_graph": cli, "max_clique": claims}
    calls = dict.fromkeys(owners, 0)
    for name, module in owners.items():
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, *argv)
    assert code in (PASS, FAIL)
    assert all(count <= 1 for count in calls.values()), calls


@pytest.mark.parametrize("command, n", [("verify all", None), ("verify claim26", 2), ("color", None)])
def test_library_gives_the_reports_main_writes(capsys, command, n):
    """claims.verify and claims.color on built instances, without argv, give
    the reports that main writes for the same run."""
    argv = command.split() + ["--k", "3", "--p", "5"] + ([] if n is None else ["--n", str(n)])
    code, doc, _ = run_json(capsys, *argv)
    zg = build_zykov(3)
    pg = build_power_graph(zg, 5)
    budget = Budget(max_nodes=cli.DEFAULT_NODE_BUDGET)
    if command == "color":
        n, reports, coloring = claims.color(pg, n, "power(k=3, p=5)", budget)
        assert coloring.to_json_dict() == doc["coloring"]
    else:
        reports, n = claims.verify(command.split()[1], zg, pg, 3, 5, n, budget)
    assert n == doc["config"]["parameters"]["n"]
    assert sorted((r.to_json_dict() for r in reports), key=lambda r: (r["check"], r["instance"])) == doc["reports"]
    failed = [r.witness for r in reports if r.verdict == "fail"]
    assert code == (FAIL if failed else PASS)
    assert bool(failed) == (command == "verify claim26") and all(w["clique"] for w in failed)


def test_verify_report_file_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "lemma24", "--p", "11", "--out", str(path))
        assert code == PASS
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


# --------------------------------------------------------------------- color


def test_color_built_power_graph(capsys):
    code, doc, _ = run_json(capsys, "color", "--k", "4", "--p", "5")
    assert code == PASS
    assert doc["coloring"]["palette"] == 4**6
    assert len(doc["coloring"]["assignment"]) == 18
    assert {r["check"]: r["verdict"] for r in doc["reports"]} == {
        "proper-coloring": "pass",
        "palette-bound": "pass",
    }


def test_color_understated_clique(capsys):
    code, doc, _ = run_json(capsys, "color", "--k", "3", "--p", "5", "--n", "2")
    assert code == FAIL
    (report,) = doc["reports"]
    assert report["check"] == "clique-order"
    assert report["witness"] == {"claimed": 2, "clique": [1, 2, 4]}


def test_color_from_file_with_metadata_modulus(tmp_path, capsys):
    pg = build_power_graph(build_zykov(3), 5)
    path = tmp_path / "g.edges"
    path.write_text(write_edgelist(pg.graph, pg.labels, metadata={"p": 5}))
    code, doc, _ = run_json(capsys, "color", str(path))
    assert code == PASS
    assert doc["config"]["parameters"]["p"] == 5
    assert doc["config"]["parameters"]["n"] == 3


def test_color_edgeless_file(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("n 3 0\n")
    code, doc, _ = run_json(capsys, "color", str(path), "--p", "5")
    assert code == PASS
    assert doc["coloring"]["palette"] == 1
    assert doc["coloring"]["assignment"] == [0, 0, 0]


def test_color_operational_errors(tmp_path, capsys):
    unlabeled = tmp_path / "u.edges"
    unlabeled.write_text("n 2 1\n0 1\n")
    code, _, err = run(capsys, "color", str(unlabeled), "--p", "5")
    assert code == OPERATIONAL and "unlabeled" in err

    no_p = tmp_path / "nop.edges"
    no_p.write_text("n 2 1\n0 1 1\n")
    code, _, err = run(capsys, "color", str(no_p))
    assert code == OPERATIONAL and "no modulus" in err

    code, _, err = run(capsys, "color")
    assert code == OPERATIONAL and "--k" in err

    code, _, err = run(capsys, "color", "--k", "3", "--p", "3")
    assert code == OPERATIONAL and "must satisfy 1 <= n <= p-1" in err


@pytest.mark.parametrize("header", ["", "# p: 5\n"], ids=["no-header", "header-p5"])
@pytest.mark.parametrize("modulus", ["0", "4", "-5"])
def test_color_refuses_a_modulus_that_is_not_a_prime(tmp_path, capsys, header, modulus):
    path = tmp_path / "g.edges"
    path.write_text(header + "n 3 1\n0 1 1\n")
    code, out, err = run(capsys, "color", str(path), "--p", modulus)
    assert code == OPERATIONAL and out == ""
    assert err == f"error: {modulus} is not a prime\n"
    # a header that is not a prime is refused the same way
    path.write_text(f"# p: {modulus}\nn 3 1\n0 1 1\n")
    code, out, err = run(capsys, "color", str(path))
    assert code == OPERATIONAL and out == ""
    assert err == f"error: {modulus} is not a prime\n"


def test_color_refuses_a_modulus_that_disagrees_with_the_file(tmp_path, capsys):
    pg = build_power_graph(build_zykov(3), 5)
    path = tmp_path / "small.edges"
    path.write_text(write_edgelist(pg.graph, pg.labels, metadata={"p": 5}))
    for command in ("color", "sample-hereditary"):
        code, out, err = run(capsys, command, str(path), "--p", "3")
        assert code == OPERATIONAL and out == "", command
        assert err == "error: --p 3 disagrees with the input file's modulus '# p: 5'\n"
    code, doc, _ = run_json(capsys, "color", str(path), "--p", "5")
    assert code == PASS and doc["config"]["parameters"]["p"] == 5


def test_color_names_the_line_or_modulus_that_is_not_an_integer(tmp_path, capsys):
    token = tmp_path / "token.edges"
    token.write_text("# p: 5\nn 3 1\n0 x 1\n")
    code, out, err = run(capsys, "color", str(token), "--n", "2")
    assert code == OPERATIONAL and out == ""
    assert err == "error: line 3: expected integers, got '0 x 1'\n"
    modulus = tmp_path / "modulus.edges"
    modulus.write_text("# p: x\nn 3 1\n0 1 1\n")
    code, out, err = run(capsys, "color", str(modulus), "--n", "2")
    assert code == OPERATIONAL and out == ""
    assert err == "error: input file's modulus '# p: x' is not an integer\n"


def test_color_and_sample_reject_labels_that_break_the_contract(tmp_path, capsys):
    # the label-1 path 0 -> 1 -> 2 lacks the edge 0 -> 2 that a power graph has
    path = tmp_path / "bad.edges"
    path.write_text("# p: 5\nn 3 2\n0 1 1\n1 2 1\n")
    for command in ("color", "sample-hereditary"):
        code, out, err = run(capsys, command, str(path))
        assert code == OPERATIONAL, command
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "non-adjacent vertices 0 and 2" in err


@pytest.mark.parametrize("command", ["color", "sample-hereditary"])
@pytest.mark.parametrize(
    "header, cap",
    [("n 5000000 0", []), ("n 1000000000000 0", []), ("n 7 0", ["--size-cap", "6"])],
    ids=["five-million", "a-trillion", "cap-6"],
)
def test_an_input_file_above_the_size_cap_is_refused_before_it_is_built(tmp_path, capsys, command, header, cap):
    path = tmp_path / "big.edges"
    path.write_text(f"# p: 5\n{header}\n")
    started = time.perf_counter()
    code, out, err = run(capsys, command, str(path), *cap)
    assert code == OPERATIONAL and out == ""
    vertices, limit = header.split()[1], cap[1] if cap else "1000000"
    assert err == f"error: predicted size {vertices} vertices exceeds cap {limit}\n"
    assert time.perf_counter() - started < 5


_BIG_P = "1000000000000000003"  # a prime whose trial division would run for hours


@pytest.mark.parametrize(
    "argv, size",
    [
        (["verify", "lemma22", "--k", "3", "--p", _BIG_P], "at least 10^18 residues"),
        (["color", "--k", "3", "--p", _BIG_P], "at least 10^18 residues"),
        (["sample-hereditary", "--k", "3", "--p", str(10**30)], "at least 10^29 residues"),
        (["verify", "lemma24", "--p", "1000003", "--n", "2"], "1000002 residues"),
        (["verify", "lemma22", "--k", "4", "--p", "1000003"], "1000002 residues"),
        (["construct", "power", "--k", "3", "--p", _BIG_P], "at least 10^18 residues"),
        (["construct", "power", "--f", "n^2", "--n", "10000000"], "9999999 orders"),
        (["color", "FILE"], "at least 10^18 residues"),
        (["sample-hereditary", "FILE"], "at least 10^18 residues"),
        (["color", "FILE", "--p", "1000003"], "1000002 residues"),
    ],
)
def test_a_modulus_or_growth_domain_above_the_size_cap_is_refused_at_once(tmp_path, capsys, argv, size):
    path = tmp_path / "big-p.edges"
    path.write_text(f"# p: {_BIG_P}\nn 3 2\n0 1 1\n1 2 1\n")
    started = time.perf_counter()
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == OPERATIONAL and out == ""
    assert err == f"error: predicted size {size} exceeds cap 1000000\n"
    assert time.perf_counter() - started < 5


def test_the_modulus_cap_counts_the_p_minus_1_residues(capsys):
    assert run(capsys, "verify", "lemma24", "--p", "7", "--size-cap", "6")[0] == PASS
    code, _, err = run(capsys, "verify", "lemma24", "--p", "7", "--size-cap", "5")
    assert code == OPERATIONAL and err == "error: predicted size 6 residues exceeds cap 5\n"
    code, _, err = run(capsys, "construct", "power", "--f", "n^2", "--n", "7", "--size-cap", "5")
    assert code == OPERATIONAL and err == "error: predicted size 6 orders exceeds cap 5\n"


def test_color_rejects_duplicate_edges_and_directed_cycles(tmp_path, capsys):
    duplicated = tmp_path / "dup.edges"
    duplicated.write_text("# p: 5\nn 3 2\n0 1 1\n0 1 2\n")
    code, out, err = run(capsys, "color", str(duplicated))
    assert code == OPERATIONAL and out == ""
    assert "line 4: duplicate edge 0 1" in err
    # each residue class is acyclic, the graph is not; the ring 2 -> 3 ->
    # 4 -> 5 -> 2 has a tail 2 -> 1 -> 0 on the lower vertices, and the
    # cycle printed must be a directed cycle of the file's edges
    for text in ("n 2 2\n0 1 1\n1 0 4\n", "n 6 6\n1 0 3\n2 1 2\n2 3 1\n3 4 4\n4 5 1\n5 2 4\n"):
        cyclic = tmp_path / "cycle.edges"
        cyclic.write_text("# p: 5\n" + text)
        code, out, err = run(capsys, "color", str(cyclic), "--n", "2")
        assert code == OPERATIONAL and out == ""
        cycle = json.loads(re.fullmatch(r"error: directed cycle through vertices (\[.*\])\n", err)[1])
        edges = {tuple(map(int, line.split()[:2])) for line in text.splitlines()[1:]}
        assert len(set(cycle)) == len(cycle) >= 2
        assert all((a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))


# ---------------------------------------------------------- sample-hereditary


def test_sample_hereditary_all_samples_bounded(capsys):
    code, doc, _ = run_json(
        capsys,
        "sample-hereditary",
        "--k", "4", "--p", "2", "--count", "15", "--seed", "1",
    )
    assert code == PASS
    clique_reports = [r for r in doc["reports"] if r["check"] == "clique-bound"]
    assert len(clique_reports) == 15
    assert all(r["witness"]["omega"] <= 2 for r in clique_reports)


def test_sample_hereditary_zero_count(capsys):
    code, doc, _ = run_json(
        capsys, "sample-hereditary", "--k", "3", "--p", "2", "--count", "0"
    )
    assert code == PASS and doc["reports"] == []


def test_sample_hereditary_rejects_negative_count(capsys):
    code, out, err = run(capsys, "sample-hereditary", "--k", "3", "--p", "2", "--count", "-3")
    assert code == OPERATIONAL and out == "" and "--count" in err


def test_sample_hereditary_rejects_density_outside_unit_interval(capsys):
    for density in ("7", "-0.1"):
        code, out, err = run(capsys, "sample-hereditary", "--k", "3", "--p", "2", "--density", density)
        assert code == OPERATIONAL and out == "" and "--density" in err


def test_sample_hereditary_deterministic(capsys):
    argv = ["sample-hereditary", "--k", "3", "--p", "3", "--count", "25", "--seed", "7"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == PASS
    assert hashlib.sha256(out1.encode()).digest() == hashlib.sha256(out2.encode()).digest()


def test_sample_hereditary_from_file(tmp_path, capsys):
    pg = build_power_graph(build_zykov(3), 3)
    path = tmp_path / "g.edges"
    path.write_text(write_edgelist(pg.graph, pg.labels, metadata={"p": 3}))
    code, doc, _ = run_json(
        capsys, "sample-hereditary", str(path), "--count", "10", "--seed", "3"
    )
    assert code == PASS
    assert doc["config"]["parameters"]["input"] == str(path)
    assert doc["config"]["parameters"]["p"] == 3


# ------------------------------------------------------------------ variants

# The exit code and the sha256 of the report (the --out file, else stdout) of
# accepted argvs, recorded while each command decided on its own which
# options it reads: at least one per command variant, and the three cli-k6
# benchmark argvs at k = 4. Run in a directory holding FILE, written by
# `construct power --k 3 --p 5`, and F, written by `construct power --k 4 --p 7`;
# `construct power --f 2^n --n 3` asks for level g(3) = 8, above the size cap
PINNED_VARIANT_OUTPUTS = [
    (["construct", "zykov", "--k", "3"], PASS, "b2c0c3fe5c6b8d049eb8e4dc4c806f049b829d40e161afef3ce4b56551ceddcf"),
    (["construct", "power", "--f", "2^n", "--n", "3"], OPERATIONAL, hashlib.sha256(b"").hexdigest()),
    (["construct", "power", "--f", "2^n", "--n", "2"], PASS, "82233f815088b5e2a1879c7cdc1bed0d5f4112c860fa9d150985cbea346db622"),
    (["construct", "power", "--k", "4", "--p", "7", "--out", "F"], PASS, "45e55951289bbbe1c3c3726bc64241a9ba6d5bd4774d3e511557594afdd5fe53"),
    (["verify", "lemma21", "--k", "3"], PASS, "62925be734fd2049f704b21c3d336e2ba13cac2b43d243bd5a9303ccc1cfec89"),
    (["verify", "lemma22", "--k", "4", "--p", "5"], PASS, "4457bffd7919ca30b6a517f71bee84d2bc8580fd3a5ddeb79430372e216abf47"),
    (["verify", "lemma24", "--p", "7"], PASS, "4053a7f006acd18cd20b4de510d4bbd39f94cd74d3a67196d08971bd6c5fa28c"),
    (["verify", "claim26", "--k", "3", "--p", "5", "--n", "2"], FAIL, "ac8e54fda9e842ea8134183b426af768ba9f0e2b86643b8d5aca6a521768d982"),
    (["verify", "claim26", "--k", "4", "--p", "7", "--n", "4", "--out", "V"], PASS, "e36032f1ba4e9654a1a39420368d7cf97ba2a2f20c3669c93c769be269e530ac"),
    (["verify", "claim26", "--k", "4", "--p", "5"], PASS, "4ffbd9996db48b83accadcb4f4a40dd1b5b9104763132ace9ed08a73fa71a7c5"),
    (["verify", "all", "--k", "3", "--p", "5", "--n", "2"], FAIL, "3923cfdc8d078e67acc40ee41102f869b8dd25331b69116b70660b6d6fe0464b"),
    (["color", "F", "--n", "4", "--out", "C"], PASS, "1697581c1c041c2edf0cfb5a7c2833137e3c718e658a798404f5a29e806f0cf5"),
    (["color", "FILE"], PASS, "d02a6367d298b998d99492e1875bbaa1f7bccc5c731d68b88e5c4d6d84fe775a"),
    (["color", "FILE", "--p", "5"], PASS, "d02a6367d298b998d99492e1875bbaa1f7bccc5c731d68b88e5c4d6d84fe775a"),
    (["color", "--k", "3", "--p", "5", "--n", "2"], FAIL, "e05f45ff3dc5355ff64e673b3a9bcf3ea3682de1e6f38088669c41cb5febc04b"),
    (["color", "--k", "3", "--p", "5"], PASS, "4332845373805852699aff423e92f1819c38d267c5e2a79335b696cc7e27c70b"),
    (["sample-hereditary", "FILE", "--count", "3"], PASS, "fdccb5019d8abab2b0c27b21912f5a0a18ec5e3c1e3c80780d07b1a5a3f9170c"),
    (
        ["sample-hereditary", "--k", "3", "--p", "3", "--count", "5", "--seed", "2"],
        PASS,
        "969fa9f2d9f5b0788ea6b57fc4a08e29a1e7ca3733702c108757cbba69bc3c8b",
    ),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_VARIANT_OUTPUTS, ids=[" ".join(a) for a, _, _ in PINNED_VARIANT_OUTPUTS])
def test_variant_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, code, digest):
    monkeypatch.chdir(tmp_path)  # the input path enters the config bytes
    assert main(["construct", "power", "--k", "3", "--p", "5", "--out", "FILE"]) == PASS
    assert main(["construct", "power", "--k", "4", "--p", "7", "--out", "F"]) == PASS
    got, out, _ = run(capsys, *argv)
    assert got == code
    data = (tmp_path / argv[-1]).read_bytes() if "--out" in argv else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


# The exit code and the sha256 of the stdout of each argv that builds a power
# graph on a tower, recorded while the cli merged the closure with
# distance_table; ω of power(4, 5) is 4, so n = 4 passes
PINNED_TOWER_POWER_OUTPUTS = [
    (["construct", "power", "--k", "4", "--p", "3"], "9901f41eb73e62ee510fb9380ef3b9f16efb8af960450c73bec61b065f0623b9"),
    (["verify", "claim26", "--k", "4", "--p", "5", "--n", "4"], "4ffbd9996db48b83accadcb4f4a40dd1b5b9104763132ace9ed08a73fa71a7c5"),
    (["verify", "lemma22", "--k", "4", "--p", "3"], "9d0f7104a7d7cf3b67246bfa6ce39d686613fa158b014b18623aaa3a53b80599"),
    (["color", "--k", "4", "--p", "5", "--n", "4"], "fc4dd357f66df97ba0eae0063d5022008a2ff24c9368e84d30b89c78ee86ed23"),
]


@pytest.mark.parametrize("argv, digest", PINNED_TOWER_POWER_OUTPUTS, ids=[" ".join(a) for a, _ in PINNED_TOWER_POWER_OUTPUTS])
def test_tower_power_graphs_skip_the_generic_merge(monkeypatch, capsys, argv, digest):
    # every power graph the cli builds on a tower stands on the closure that
    # zykov_closure composes; a fall-back to distance_table's merge fails here
    def refuse(*args, **kwargs):
        raise AssertionError("distance_table ran on a tower")

    monkeypatch.setattr(chibound.power, "distance_table", refuse)
    monkeypatch.setattr(chibound.graphs, "distance_table", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------- fuzz

# (vertices, labeled edges, modulus): two power graphs, and a transitive
# tournament on four vertices whose labels all pass mod 3 although its clique
# order exceeds 3
_FUZZ_BASES = [
    (pg.graph.n, [(u, v, r) for (u, v), r in zip(pg.graph.edges, pg.labels)], pg.p)
    for pg in (build_power_graph(build_zykov(3), 5), build_power_graph(build_zykov(4), 3))
] + [(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)], 3)]
_FUZZ_INTS = st.one_of(st.integers(-2, 20), st.sampled_from([10**6 + 1, 5_000_000, 10**12, 10**30]))
_FUZZ_MODULI = ["0", "1", "2", "3", "4", "5", "7", "31", "1000000000000000003", str(10**30), "-5", "x", ""]
_FUZZ_MUTATIONS = ["label", "id", "repeat", "reverse", "unlabel", "junk", "vertices", "edges", "modulus", "p", "budget", "cap"]


@st.composite
def _fuzz_case(draw):
    """(edge-list text, argv, header vertex count, size cap): a color or
    sample-hereditary run on a small labeled graph, with up to three
    mutations of its labels, vertex ids, edge lines (repeated, reversed,
    unlabeled, malformed), header counts, ``# p:`` comment, or flags."""
    n, edges, p = draw(st.sampled_from(_FUZZ_BASES))
    rows = [[str(u), str(v), str(r)] for u, v, r in edges]
    m, modulus, cap = None, str(p), 10**6
    argv = [draw(st.sampled_from(["color", "sample-hereditary"]))]
    if argv[0] == "color" and draw(st.booleans()):
        argv += ["--n", str(draw(st.integers(-1, 7)))]
    if argv[0] == "sample-hereditary":
        argv += ["--count", str(draw(st.integers(0, 3))), "--seed", str(draw(st.integers(0, 5)))]
        argv += ["--density", draw(st.sampled_from(["0", "0.5", "1"]))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(_FUZZ_MUTATIONS))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "vertices":
            n = draw(_FUZZ_INTS)
        elif kind == "edges":
            m = draw(st.integers(-1, len(rows) + 2))
        elif kind == "modulus":
            modulus = draw(st.one_of(st.none(), st.sampled_from(_FUZZ_MODULI)))
        elif kind == "p":
            argv += ["--p", draw(st.sampled_from(_FUZZ_MODULI[:-2]))]
        elif kind == "budget":
            argv += ["--budget-nodes", draw(st.sampled_from(["0", "5", "100"]))]
        elif kind == "cap":
            cap = draw(st.sampled_from([0, 4, 10]))
            argv += ["--size-cap", str(cap)]
        elif len(rows[i]) != 3:
            continue
        elif kind == "label":
            rows[i] = rows[i][:2] + [str(draw(_FUZZ_INTS))]
        elif kind == "id":
            rows[i][draw(st.integers(0, 1))] = str(draw(_FUZZ_INTS))
        elif kind == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
        elif kind == "reverse":
            rows[i] = [rows[i][1], rows[i][0], rows[i][2]]
        elif kind == "unlabel":
            rows[i] = rows[i][:2]
        else:
            rows[i] = draw(st.sampled_from([["x", "1", "2"], ["0", "1", "2", "3"], ["n", "3", "3"], ["0"]]))
    header = [] if modulus is None else [f"# p: {modulus}"]
    header.append(f"n {n} {len(rows) if m is None else m}")
    return "\n".join(header + [" ".join(row) for row in rows]) + "\n", argv, n, cap


def _contained_run(argv, out):
    """main(argv) with the report at ``out``: the exit code is 0, 1 or 2, and
    an exit 1 report has a fail verdict and every fail carries a witness."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    assert code in (PASS, FAIL, OPERATIONAL)
    if code == FAIL:
        failed = [r for r in json.loads(out.read_text())["reports"] if r["verdict"] == "fail"]
        assert failed and all(r["witness"] for r in failed)
    return code, err.getvalue()


@settings(max_examples=200)
@example(case=("# p: 5\nn 1000000000000 0\n", ["color", "--n", "1"], 10**12, 10**6))
@example(case=("# p: 5\nn 5 0\n", ["color", "--n", "2", "--budget-nodes", "5", "--size-cap", "4"], 5, 4))
@given(case=_fuzz_case())
def test_fuzzed_input_files_end_in_exit_0_1_or_2(tmp_path_factory, case):
    text, argv, n, cap = case
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "g.edges").write_text(text)
    code, err = _contained_run([argv[0], str(tmp / "g.edges"), *argv[1:]], tmp / "report.json")
    if "--n" in argv and "--budget-nodes" in argv:  # refused before the file is read
        assert code == OPERATIONAL
        assert err == "error: color does not read --budget-nodes with an input file and with --n\n"
    elif n > cap:  # refused right after the header
        assert code == OPERATIONAL and err.startswith("error: predicted size ")
        assert err.endswith(f" vertices exceeds cap {cap}\n") and err.count("\n") == 1


@pytest.mark.parametrize("kind", _FUZZ_MUTATIONS)
def test_both_readers_agree_on_each_fuzz_mutation(kind):
    """One mutation of each kind above, at 20 seeded spots in each base file:
    the bulk reader, where the file's shape lets it, gives what the line
    parser gives, or the same error."""
    rng = random.Random(kind)
    for n, edges, p in _FUZZ_BASES:
        for _ in range(20):
            rows = [[str(u), str(v), str(r)] for u, v, r in edges]
            m, modulus, cap = None, str(p), 10**6
            i = rng.randrange(len(rows))
            value = str(rng.choice([-2, 0, 1, 7, 20, 10**6 + 1, 10**30]))
            if kind == "label":
                rows[i][2] = value
            elif kind == "id":
                rows[i][rng.randrange(2)] = value
            elif kind == "repeat":
                rows.insert(rng.randrange(len(rows) + 1), rows[i])
            elif kind == "reverse":
                rows[i][:2] = rows[i][1::-1]
            elif kind == "unlabel":
                del rows[i][2]
            elif kind == "junk":
                rows[i] = rng.choice([["x", "1", "2"], ["0", "1", "2", "3"], ["n", "3", "3"], ["0"]])
            elif kind == "vertices":
                n = value
            elif kind == "edges":
                m = rng.randint(-1, len(rows) + 2)
            elif kind == "modulus":
                modulus = rng.choice(_FUZZ_MODULI)
            elif kind == "cap":
                cap = rng.choice([0, 4, 10])
            # "p" and "budget" add flags and leave the file as it is
            head = [f"# p: {modulus}", f"n {n} {len(rows) if m is None else m}"]
            text = "\n".join(head + [" ".join(row) for row in rows]) + "\n"
            assert read_outcome(read_edgelist, text, cap) == read_outcome(_read_lines, text, cap)


_FUZZ_JSON = st.one_of(
    st.just(10**30), st.booleans(), st.floats(), st.none(), st.text(max_size=2), st.lists(st.integers(0, 3), max_size=2)
)


@st.composite
def _fuzz_table(draw):
    """(growth-table text, target order): a table {order: value} over the
    orders 2..n, with up to two of the target, one value, one key or the
    whole document replaced."""
    n = draw(st.integers(2, 6))
    table = {str(k): draw(st.integers(-3, 5)) for k in range(2, n + 1)}
    text = None
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["order", "value", "key", "document"]))
        if kind == "order":
            n = draw(st.integers(-1, 7))
        elif kind == "value":
            table[draw(st.sampled_from(sorted(table)))] = draw(_FUZZ_JSON)
        elif kind == "key":
            table[draw(st.sampled_from(["02", "-1", "x", "", "1e1"]))] = draw(st.integers(-3, 5))
        else:
            text = draw(st.one_of(_FUZZ_JSON.map(json.dumps), st.sampled_from(["{", "", '{"2": 1e400}'])))
    return json.dumps(table) if text is None else text, n


@settings(max_examples=100)
@example(case=('{"2": 1e400}', 2))
@example(case=("2^n", 10**6))
@given(case=st.one_of(_fuzz_table(), st.tuples(st.sampled_from(sorted(BUILTIN_F)), st.integers(-1, 2 * 10**6))))
def test_fuzzed_growth_tables_end_in_exit_0_1_or_2(tmp_path_factory, case):
    # a table file, or a built-in at any order up to twice the size cap
    table, n = case
    tmp = tmp_path_factory.mktemp("fuzz")
    if table not in BUILTIN_F:
        (tmp / "f.json").write_text(table)
        table = str(tmp / "f.json")
    _contained_run(["construct", "power", "--f", table, "--n", str(n)], tmp / "g.edges")

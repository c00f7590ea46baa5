"""CLI surface: flags, outputs, exit codes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from posr import catalog, cli, search
from posr import io as pio
from posr.catalog import cyclic_posr_sets, fixed_digraph
from posr.cli import run
from posr.errors import TooLarge
from posr.groups import group_from_token


@pytest.fixture
def fig19_file(tmp_path):
    path = tmp_path / "fig1_9.edges"
    path.write_text(pio.to_edgelist(fixed_digraph("fig1_9")))
    return path


@pytest.fixture
def z7_sets_file(tmp_path):
    g = group_from_token("cyclic:7")
    path = tmp_path / "z7.json"
    path.write_text(pio.connection_sets_to_json(cyclic_posr_sets(7, 2), g))
    return path


def test_classify_output(capsys):
    assert run(["classify", "--group", "cyclic:6", "--m", "2", "--kind", "posr"]) == 0
    assert capsys.readouterr().out.strip() == "No — Theorem 1.1(i)"


def test_aut_fig19(capsys, fig19_file):
    assert run(["aut", "--input", str(fig19_file)]) == 0
    assert "order 1" in capsys.readouterr().out


def test_aut_json(capsys, fig19_file):
    assert run(["aut", "--input", str(fig19_file), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 1 and payload["generators"] == []


def test_build_edgelist(capsys, z7_sets_file):
    assert run(["build", "--group", "cyclic:7", "--m", "2",
                "--sets", str(z7_sets_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 14\n")
    assert len(out.strip().splitlines()) == 1 + 42  # header + 3*14 arcs


def test_build_m_mismatch(capsys, z7_sets_file):
    assert run(["build", "--group", "cyclic:7", "--m", "3",
                "--sets", str(z7_sets_file)]) == 2


def test_search_exhausted(capsys):
    assert run(["search", "--group", "cyclic:5", "--m", "2", "--kind", "posr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ExhaustedNone"
    assert payload["candidates_examined"] == 100


def test_search_aborted_exit_code(capsys):
    assert run(["search", "--group", "cyclic:6", "--m", "2",
                "--time-budget", "0"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "Aborted"


def test_search_antisym(capsys):
    assert run(["search", "--antisym", "--m", "5", "--oriented"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ExhaustedNone"


def test_search_antisym_time_budget(capsys):
    # the budget is checked at each kernel node: the m=7 exhaustion (132
    # candidates) stops at once
    assert run(["search", "--antisym", "--m", "7", "--oriented", "--time-budget", "0"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "Aborted"
    assert run(["search", "--antisym", "--m", "7", "--oriented", "--time-budget", "60"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["candidates_examined"]) == ("ExhaustedNone", 132)


@pytest.mark.parametrize("flags,rejected", [
    (["--antisym", "--group", "cyclic:1"], "--group"),
    (["--antisym", "--naive"], "--naive"),
    (["--antisym", "--cursor-start", "5"], "--cursor-start"),
    (["--antisym", "--cursor-start", "0"], "--cursor-start"),
    (["--antisym", "--cursor-stop", "5"], "--cursor-stop"),
    (["--antisym", "--progress-every", "10"], "--progress-every"),
    (["--group", "cyclic:5", "--oriented"], "--oriented"),
    # --kind posr would otherwise return a witness with digons
    (["--antisym", "--kind", "posr"], "--kind"),
    (["--antisym", "--kind", "pdr"], "--kind"),
])
def test_search_flags_of_the_other_mode_rejected(monkeypatch, capsys, flags, rejected):
    # refused up front rather than silently dropped: no search runs
    def no_search(*args, **kwargs):
        raise AssertionError("search called")

    monkeypatch.setattr(cli, "exists_antisymmetric_kregular", no_search)
    monkeypatch.setattr(cli, "exists_mposr", no_search)
    assert run(["search", "--m", "7", *flags]) == 2
    assert rejected in capsys.readouterr().err


def test_search_json_deterministic(capsys):
    run(["search", "--group", "cyclic:5", "--m", "2"])
    first = capsys.readouterr().out
    run(["search", "--group", "cyclic:5", "--m", "2"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b


def test_usage_errors():
    assert run(["frobnicate"]) == 2
    assert run(["classify", "--group", "cyclic:6"]) == 2  # missing --m
    assert run(["search", "--m", "2"]) == 2  # no group, no --antisym
    assert run(["search", "--group", "cyclic:5", "--m", "0"]) == 2
    assert run(["aut", "--input", "/nonexistent/file"]) == 2


def test_verify_reports_known_failure(capsys):
    # the default-tier registry contains exactly one entry refuted by search
    code = run(["verify", "--tier", "default", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts"]["Fail"] == 1
    failing = [r["name"] for r in payload["results"] if r["status"] == "Fail"]
    assert failing == ["trivial-m6-pdr-none"]


def test_verify_budget_exit_codes(monkeypatch, capsys):
    # out of node budget: a Skip with the budget named, never a usage error;
    # the rigid-digraph searches spend kernel descents from the same budget
    code = run(["verify", "--node-budget", "3", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["counts"]["Fail"] == 0
    by_name = {r["name"]: r for r in payload["results"]}
    for name in ("trivial-m6-pdr-none", "trivial-m7-posr-none"):
        assert by_name[name]["status"] == "Skip"
        assert by_name[name]["detail"] == "search aborted (budget)"
    for name in ("cyclic7-m2-posr", "fig1_9-rigid", "quaternion8-m2-posr-none"):
        assert by_name[name]["status"] == "Skip"
        assert by_name[name]["detail"].startswith("budget exceeded")
    load = catalog.load_claims
    names = {"cyclic7-m2-posr", "fig1_9-rigid", "cyclic6-m2-posr-none"}
    monkeypatch.setattr(catalog, "load_claims",
                        lambda: [c for c in load() if c.name in names])
    assert run(["verify", "--node-budget", "3"]) == 3
    assert run(["verify", "--time-budget", "0"]) == 3  # the search aborts
    assert run(["verify"]) == 0
    table = capsys.readouterr().out
    assert "budget exceeded" in table and "search aborted (budget)" in table
    # a failing claim still takes precedence over a budget Skip: a witness
    # with digons fails validation before any search spends the budget
    z7 = next(c for c in load() if c.name == "cyclic7-m2-posr")
    digons = dataclasses.replace(z7, name="cyclic7-m2-posr-digons", sets={
        "m": 2, "sets": [[[], ["1", "x", "x^2"]], [["1", "x^6", "x^5"], []]]})
    monkeypatch.setattr(catalog, "load_claims",
                        lambda: [c for c in load() if c.name in names] + [digons])
    assert run(["verify", "--node-budget", "3", "--output", "json"]) == 1
    by_name = {r["name"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert by_name["cyclic7-m2-posr-digons"]["status"] == "Fail"
    assert by_name["cyclic7-m2-posr"]["detail"].startswith("budget exceeded")


def test_verify_time_budget_reaches_rigid_searches(monkeypatch, capsys):
    # the trivial group's rigid-digraph searches check the per-claim time
    # budget at each kernel node; without it m=7 exhausts 132 candidates
    trivial = {"trivial-m4-posr-none", "trivial-m7-posr-none", "trivial-m6-pdr-none",
               "trivial-m8-posr-none"}
    load = catalog.load_claims
    monkeypatch.setattr(catalog, "load_claims",
                        lambda: [c for c in load() if c.name in trivial])
    assert run(["verify", "--tier", "extended", "--time-budget", "0", "--output", "json"]) == 3
    results = json.loads(capsys.readouterr().out)["results"]
    assert {(r["name"], r["status"], r["detail"]) for r in results} == {
        (name, "Skip", "search aborted (budget)") for name in trivial}


def test_removed_reduction_flag_is_usage_error(capsys):
    # the default search already reduces by Aut(G) x one-part translations
    # and counts every rank of the full order
    assert run(["search", "--group", "quaternion8", "--m", "2",
                "--reduce-by-group-auts"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["search", "--group", "quaternion8", "--m", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ExhaustedNone"
    assert payload["candidates_examined"] == 3136


def test_threads_flag_is_usage_error(capsys):
    # every search runs on one thread; the removed flag is an unknown option
    assert run(["search", "--antisym", "--m", "7", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert run(["verify", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_search_antisym_too_large(monkeypatch, capsys):
    # refused up front: the kernel is never called
    def no_kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(search.kernels, "regular_digraph_search", no_kernel)
    assert run(["search", "--antisym", "--m", "64"]) == 2
    assert "63 vertices" in capsys.readouterr().err
    with pytest.raises(TooLarge):
        search.exists_antisymmetric_kregular(64, 3, oriented=True)


@pytest.mark.parametrize("argv,named", [
    (["classify", "--group", "cyclic:abc", "--m", "2"], "cyclic:abc"),
    (["search", "--group", "dihedral:x", "--m", "2"], "dihedral:x"),
    (["search", "--group", "smallgroup:16:q", "--m", "2"], "smallgroup:16:q"),
    (["classify", "--group", "cyclic:100000", "--m", "2"], "cyclic:100000"),
])
def test_malformed_group_token_is_usage_error(capsys, argv, named):
    assert run(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command,text,named", [
    ("aut", "n 3\n0 x\n", "'0 x'"),
    ("aut", "n three\n0 1\n", "'n three'"),
    ("build", "not json\n", "not JSON"),
    ("build", '{"m": 2}\n', "'sets'"),
    ("build", '{"m": "x", "sets": []}\n', "'m'"),
    ("build", '{"m": 2, "sets": 5}\n', "'sets'"),
    ("build", '{"m": 2.9, "sets": [[[], [1, 2, 4]], [[3, 5, 6], []]]}\n', "'m' 2.9"),
    ("build", '{"m": true, "sets": [[[1]]]}\n', "'m' True"),
    ("build", '{"m": "2", "sets": [[[], [1, 2, 4]], [[3, 5, 6], []]]}\n', "'m' '2'"),
    ("build", '{"m": 2, "sets": [[[], [1.5, 2, 4]], [[3, 5, 6], []]]}\n', "element 1.5"),
    ("build", '{"m": 2, "sets": [[[], [true, 2, 4]], [[3, 5, 6], []]]}\n', "element True"),
    ("build", '{"m": 2, "sets": [[[], [null, 2, 4]], [[3, 5, 6], []]]}\n', "element None"),
    ("aut", "n -3\n", "'n -3'"),
])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, text, named):
    path = tmp_path / "input"
    path.write_text(text)
    if command == "aut":
        argv = ["aut", "--input", str(path)]
    else:
        argv = ["build", "--group", "cyclic:7", "--m", "2", "--sets", str(path)]
    assert run(argv) == 2
    assert named in capsys.readouterr().err


def test_posr_tier_read_at_each_verify(monkeypatch, capsys):
    # the parser is built once per process, so the tier's environment
    # default must be read when verify runs, not when the parser is built
    assert cli.build_parser() is cli.build_parser()
    names = {"cyclic7-m2-posr", "c4_semidirect_c4-m2-posr-none"}
    load = catalog.load_claims
    monkeypatch.setattr(catalog, "load_claims",
                        lambda: [c for c in load() if c.name in names])
    monkeypatch.setenv("POSR_TIER", "extended")
    assert run(["verify", "--output", "json"]) == 1  # the extended claim is refuted
    monkeypatch.setenv("POSR_TIER", "default")
    assert run(["verify", "--output", "json"]) == 0
    assert run(["verify", "--tier", "extended", "--output", "json"]) == 1  # the flag wins
    capsys.readouterr()
    monkeypatch.delenv("POSR_TIER")
    assert run(["verify", "--output", "json"]) == 0
    by_name = {r["name"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert by_name["c4_semidirect_c4-m2-posr-none"]["detail"] == "extended tier not selected"


def test_unknown_posr_tier_is_usage_error(monkeypatch, capsys):
    def no_verify(budget):
        raise AssertionError("verify ran with an unknown tier")

    monkeypatch.setattr(cli, "verify_all", no_verify)
    monkeypatch.setenv("POSR_TIER", "bogus")
    assert run(["verify"]) == 2
    captured = capsys.readouterr()
    assert "POSR_TIER='bogus'" in captured.err and captured.out == ""
    assert run(["verify", "--tier", "bogus"]) == 2  # argparse checks the flag

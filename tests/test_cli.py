"""Command-line surface: outputs, formats and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from importlib import resources

import pgf
from pgf.cli import dispatch
from test_pc import INCONSISTENT_TEXT


def fixture_path(name):
    return str(resources.files("pgf").joinpath("data", name))


def test_build_prints_order_rank_dl(capsys):
    assert dispatch(["build", "W(C(2,1),C(2,1))"]) == 0
    assert capsys.readouterr().out == "order=8 rank=2 dl=2\n"


def test_build_cyclic(capsys):
    assert dispatch(["build", "C(3,2)"]) == 0
    assert capsys.readouterr().out == "order=9 rank=1 dl=1\n"


def test_build_invalid_certificate_exits_1(capsys):
    assert dispatch(["build", "C(6,1)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "6" in err


def test_build_cap_violation_exits_1(capsys):
    assert dispatch(["build", "W(C(3,2),C(3,2))"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["census", fixture_path("o8.pc"), "--format", "yaml"])
    assert exc.value.code == 2


def test_help_documents_grammar_and_examples(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for needle in (
        "C(l,k)",
        "D(a,b)",
        "W(a,b)",
        "Q(c;w1,...,wn)",
        'pgf build "W(C(2,1),C(2,1))"',
        "pgf semiabelian",
        "pgf verify",
    ):
        assert needle in out


def test_semiabelian_certificate_with_witness(capsys):
    assert dispatch(["semiabelian", "W(C(2,1),C(2,1))"]) == 0
    out = capsys.readouterr().out
    assert "semiabelian=true" in out
    assert "step 1:" in out
    assert "A abelian normal" in out


def test_semiabelian_from_pcfile_index(capsys):
    assert dispatch(["semiabelian", fixture_path("o8.pc") + "#5"]) == 0
    out = capsys.readouterr().out
    assert "#5" in out
    assert "semiabelian=true" in out


def test_semiabelian_bad_index_exits_1(capsys):
    assert dispatch(["semiabelian", fixture_path("o8.pc") + "#99"]) == 1
    err = capsys.readouterr().err
    assert "99" in err and "o8.pc" in err


def test_semiabelian_index_shared_by_several_orders_exits_1(tmp_path, capsys):
    path = tmp_path / "mixed.pc"
    with open(fixture_path("o8.pc")) as o8, open(fixture_path("o16.pc")) as o16:
        path.write_text(o8.read() + o16.read())
    assert dispatch(["semiabelian", f"{path}#3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index 3 names several groups" in captured.err
    assert "(8, 3), (16, 3)" in captured.err
    assert dispatch(["semiabelian", f"{path}#14"]) == 0  # only order 16 has a #14
    assert "#14: semiabelian=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, group_line",
    [(["census", "neg.pc"], "GROUP 2 -1"), (["semiabelian", "zero.pc#0"], "GROUP 2 0")],
)
def test_group_id_below_one_is_a_parse_error(args, group_line, tmp_path, monkeypatch, capsys):
    name = args[1].split("#")[0]
    (tmp_path / name).write_text(f"# comment\n{group_line}\nPRIME 2\nNGENS 1\nEND\n")
    monkeypatch.chdir(tmp_path)
    assert dispatch(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {name}:2: GROUP order and index must be at least 1, got {group_line[6:]}\n"
    )


def test_census_csv_output(tmp_path, capsys):
    rc = dispatch(
        [
            "census",
            fixture_path("o8.pc"),
            "--format",
            "csv",
            "--cache",
            str(tmp_path),
            "--jobs",
            "1",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "order,index,provenance,rank,dl,semiabelian,screen,elapsed_ms"


def test_census_json_output(capsys):
    assert dispatch(["census", fixture_path("o8.pc"), "--jobs", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["total"] == 5
    assert doc["summary"]["non_semiabelian"] == 0


def test_census_failure_exits_1(tmp_path, capsys):
    big = tmp_path / "o2048.pc"
    big.write_text("GROUP 2048 1\nPRIME 2\nNGENS 11\nEND\n")
    rc = dispatch(["census", str(big), "--jobs", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "(2048,1)" in captured.err
    doc = json.loads(captured.out)
    assert doc["summary"]["total"] == 0
    assert len(doc["summary"]["failures"]) == 1


def test_ramification_report(capsys):
    assert dispatch(["ramification", "W(C(2,1),C(2,1))"]) == 0
    out = capsys.readouterr().out
    assert "minimal ramified primes: 2" in out
    assert "rank: 2" in out


def test_bounds_table(capsys):
    assert dispatch(["bounds", "W(C(5,1),C(5,1))"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[0] == "certificate"
    assert "15625" in out


def test_bounds_multiple_certificates(capsys):
    assert dispatch(["bounds", "C(2,1)", "W(C(2,1),C(2,1))"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3


def replay_claims(monkeypatch, results):
    """Make `pgf verify` print `results` instead of rerunning the gate;
    returns the list of keyword arguments it was called with."""
    calls = []

    def fake_run_claims(**kwargs):
        calls.append(kwargs)
        return list(results)

    monkeypatch.setattr("pgf.verify.run_claims", fake_run_claims)
    return calls


def test_verify_prints_one_line_per_criterion(capsys, monkeypatch, claim_results):
    from pgf.verify import format_claims

    calls = replay_claims(monkeypatch, claim_results)
    assert dispatch(["verify"]) == 0
    assert calls == [{"data_dir": None, "cache_dir": None, "include_long": None}]
    out = capsys.readouterr().out
    assert out == format_claims(claim_results) + "\n"
    lines = out.splitlines()
    tags = [ln.split(":")[0] for ln in lines]
    assert tags == [f"CRITERION {i}" for i in range(1, 9)]
    for ln in lines:
        assert any(s in ln for s in (": PASS", ": FAIL", ": SKIPPED"))


def test_verify_json_matches_run_claims(capsys, monkeypatch, claim_results):
    replay_claims(monkeypatch, claim_results)
    code = dispatch(["verify", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert [sorted(r) for r in rows] == [
        ["detail", "elapsed_s", "name", "number", "status"]
    ] * 8
    assert rows == [dataclasses.asdict(r) for r in claim_results]
    assert code == (0 if all(r["status"] != "FAIL" for r in rows) else 1)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_exits_1_on_a_failed_claim(flags, capsys, monkeypatch, claim_results):
    failed = dataclasses.replace(claim_results[0], status="FAIL", detail="synthetic")
    replay_claims(monkeypatch, (failed,) + claim_results[1:])
    assert dispatch(["verify"] + flags) == 1
    out = capsys.readouterr().out
    if flags:
        assert json.loads(out)[0]["status"] == "FAIL"
    else:
        assert out.startswith("CRITERION 1: FAIL - ")


def test_semiabelian_inconsistent_presentation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.pc"
    path.write_text(INCONSISTENT_TEXT)
    assert dispatch(["semiabelian", f"{path}#9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "group (8, 9): inconsistent presentation" in captured.err


def test_semiabelian_presentation_over_table_cap_exits_1(tmp_path, capsys):
    big = tmp_path / "o2048.pc"
    big.write_text("GROUP 2048 1\nPRIME 2\nNGENS 11\nEND\n")
    assert dispatch(["semiabelian", f"{big}#1"]) == 1
    assert "order 2048 exceeds table cap 1024" in capsys.readouterr().err


LONG_INTEGER = "1" * 5000  # past Python's limit on digits in int()


@pytest.mark.parametrize(
    "args",
    [
        ["build", "C(2,20000)"],
        ["build", "C(3,30000000)"],
        ["build", f"C(2,{LONG_INTEGER})"],
        ["build", f"C(2,{'9' * 4000})"],
        ["build", "C(2305843009213693951,1)"],
        ["census", "huge-ngens.pc"],
        ["census", "huge-prime.pc"],
        ["census", "missing.pc"],
        ["census", "directory.pc"],
        ["census", "latin1.pc"],
        ["semiabelian", "missing.pc#3"],
        ["build", "Q(" * 1200 + "C(2,1)" + ";g1)" * 1200],
        ["build", "Q(" * 600 + "C(2,2)" + ";g1^2)" * 600],
        ["ramification", "Q(" * 600 + "C(2,2)" + ";g1^2)" * 600],
        ["semiabelian", "Q(" * 600 + "C(2,2)" + ";g1^2)" * 600],
    ],
    ids=[
        "order-2^20000",
        "order-3^30000000",
        "5000-digit-exponent",
        "4000-digit-exponent",
        "prime-2^61-1",
        "ngens-30000000",
        "pc-prime-2^61-1",
        "missing-file",
        "directory",
        "byte-0xff",
        "missing-file-index",
        "nesting-1200",
        "valid-chain-600",
        "valid-chain-600-ramification",
        "valid-chain-600-semiabelian",
    ],
)
def test_oversized_input_is_an_error_not_a_crash(args, tmp_path):
    """Each input once printed a traceback or ran for half a minute; now
    each is refused within seconds with one error line."""
    (tmp_path / "huge-ngens.pc").write_text(
        "GROUP 16 1\nPRIME 2\nNGENS 30000000\nEND\n"
    )
    (tmp_path / "huge-prime.pc").write_text(
        "GROUP 2 1\nPRIME 2305843009213693951\nNGENS 1\nEND\n"
    )
    (tmp_path / "directory.pc").mkdir()
    (tmp_path / "latin1.pc").write_bytes(b"# caf\xe9\xff\nGROUP 2 1\nPRIME 2\nNGENS 1\nEND\n")
    proc = run_module_cli(args, cwd=tmp_path, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert len(proc.stderr) < 200


@pytest.mark.parametrize(
    "args, reason",
    [
        (["census", "missing.pc"], "cannot read: No such file or directory"),
        (["census", "directory.pc"], "cannot read: Is a directory"),
        (["census", "latin1.pc"], "not UTF-8 text at byte 5"),
        (["semiabelian", "missing.pc#3"], "cannot read: No such file or directory"),
    ],
)
def test_unreadable_dataset_error_names_the_path(args, reason, tmp_path, monkeypatch, capsys):
    (tmp_path / "directory.pc").mkdir()
    (tmp_path / "latin1.pc").write_bytes(b"# caf\xe9\xff\nGROUP 2 1\nPRIME 2\nNGENS 1\nEND\n")
    monkeypatch.chdir(tmp_path)
    assert dispatch(args) == 1
    path = args[1].split("#")[0]
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("bad", ["file", "directory"])
def test_unusable_cache_is_an_error_before_classifying(bad, tmp_path):
    """A cache directory that is a regular file, or a cache file that is a
    directory, once crashed the census with a traceback from the cache
    writes or reads; now it is refused with one error line naming it."""
    if bad == "file":
        cache = tmp_path / "cache"
        cache.write_text("")
        named = str(cache)
    else:
        cache = tmp_path
        named = os.path.join(str(cache), "census-p2-o8.jsonl")
        os.mkdir(named)
    args = ["census", fixture_path("o8.pc"), "--cache", str(cache), "--jobs", "1"]
    proc = run_module_cli(args, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def run_module_cli(args, cwd=None, timeout=60, stdout=subprocess.PIPE):
    """`python -m pgf.cli ARGS` in a fresh process that imports this pgf;
    stdout is captured unless another target is given."""
    src = os.path.dirname(os.path.dirname(pgf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "pgf.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def test_module_entry_point_runs_the_cli():
    proc = run_module_cli(["build", "C(3,2)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "order=9 rank=1 dl=1\n"


@pytest.mark.parametrize("args", [["build", "C(3,2)"], ["verify"]])
def test_closed_stdout_ends_quietly(args):
    # the reader is gone before the first write, as after `| head -n 1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module_cli(args, timeout=120, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1

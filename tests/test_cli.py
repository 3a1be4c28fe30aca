import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchlift
from branchlift import census
from branchlift.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_liftable(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--p", "2", "--k", "1", "--n", "3",
        "--factors", "2,2", "--images", "1,0;0,1;1,1",
    )
    assert code == 0
    assert "liftable" in out and "deck group Z2 x Z2" in out


def test_check_not_liftable_with_witness(capsys):
    # one vanishing image, so only the lax reading accepts the input
    code, out, _ = run_cli(
        capsys, "check", "--p", "2", "--k", "1", "--n", "3",
        "--factors", "2", "--images", "1;1;0", "--lax",
    )
    assert code == 1
    assert "not liftable" in out and "(2 3)" in out


def test_check_strict_rejects_unbranched(capsys):
    code, _, err = run_cli(
        capsys, "check", "--p", "2", "--k", "1", "--n", "3",
        "--factors", "2", "--images", "1;1;0",
    )
    assert code == 2
    assert "ZeroBranchImage" in err


def test_check_json_matches_text_verdict(capsys):
    args = ["check", "--p", "3", "--k", "1", "--n", "3", "--factors", "3",
            "--images", "1;1;1"]
    code_text, out_text, _ = run_cli(capsys, *args)
    code_json, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code_text == code_json == 0
    payload = json.loads(out_json)
    assert payload["liftable"] is True
    assert "liftable" in out_text


def test_check_from_file_and_malformed(tmp_path, capsys):
    good = tmp_path / "cover.json"
    good.write_text(json.dumps({
        "p": 2, "k": 2, "n": 4, "factors": [2, 4],
        "images": [[1, 1], [0, 1], [0, 1], [1, 1]],
    }))
    code, out, _ = run_cli(capsys, "check", "--input", str(good))
    assert code == 1  # valid cover, does not lift everything

    bad = tmp_path / "bad.json"
    cover = {"p": 2, "k": 2, "n": 4, "factors": [2, 4]}
    # malformed documents are invalid input (2), never "not liftable" (1)
    for text in (
        "{not json",
        json.dumps({**cover, "factors": 2, "images": [[1, 1]] * 4}),
        json.dumps({**cover, "images": None}),
        json.dumps({**cover, "images": [1, 1, 0, 1, 0, 1, 1, 1]}),
        json.dumps({"n": 6, "factors": 6, "images": [[1]] * 6}),
    ):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "check", "--input", str(bad))
        assert code == 2 and "error" in json.loads(err)
    bad.write_text(json.dumps([cover]))
    code, _, err = run_cli(capsys, "check", "--input", str(bad))
    assert code == 2 and "not hold a JSON object" in err


def test_json_input_numbers_must_be_integers(tmp_path, capsys):
    # A float or a boolean is invalid input, never truncated to an integer.
    bad = tmp_path / "bad.json"
    cover = {"p": 2.7, "k": 1, "n": 3, "factors": [2], "images": [[1], [1.2], [0]]}
    for text in (
        json.dumps(cover),
        json.dumps({**cover, "p": 2, "images": [[1], [True], [0]]}),
        json.dumps({"n": 6.0, "factors": [6], "images": [[1]] * 6}),
        json.dumps({"n": 6, "factors": [6], "images": [["1"]] * 6}),
    ):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "check", "--input", str(bad), "--lax")
        assert code == 2 and "error" in json.loads(err)
    for text in (
        json.dumps({"p": 2, "k": 1, "m": 2, "basis": [[1.9, 0]]}),
        json.dumps({"p": 2, "k": True, "m": 2, "basis": [[1, 0]]}),
        json.dumps({"p": 2, "k": 1, "m": 2.0, "basis": [[1, 0]]}),
    ):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "canonical", "--input", str(bad))
        assert code == 2 and "error" in json.loads(err)


def test_check_general_cover(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--input", "/dev/null/nope",
    )
    assert code == 2


def test_check_general_cover_file(tmp_path, capsys):
    path = tmp_path / "general.json"
    path.write_text(json.dumps({
        "n": 6, "factors": [6], "images": [[1]] * 6,
    }))
    code, out, _ = run_cli(capsys, "check", "--input", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["liftable"] is True
    assert {part["p"] for part in payload["parts"]} == {2, 3}


def test_canonical_documented_example(capsys):
    code, out, _ = run_cli(
        capsys, "canonical", "--p", "2", "--k", "2", "--gens", "2,1",
    )
    assert code == 0
    assert "rank 1" in out
    assert "column permutation: (1 2)" in out
    assert "round trip: ok" in out


def test_canonical_edge_cases(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "canonical", "--p", "2", "--k", "1", "--m", "2", "--gens", "1,0;0,1",
    )
    assert code == 0 and "rank 2" in out
    code, out, _ = run_cli(
        capsys, "canonical", "--p", "2", "--k", "1", "--m", "2", "--gens", "",
    )
    assert code == 0 and "rank 0" in out
    code, _, err = run_cli(capsys, "canonical", "--p", "2", "--k", "1", "--gens", "")
    assert code == 2
    bad = tmp_path / "sub.json"
    for text in (
        json.dumps({"p": 2, "k": 1, "m": 2, "basis": 5}),
        json.dumps({"p": 2, "k": 1, "m": 2, "basis": [5]}),
        json.dumps({"p": 2, "k": 1, "m": 2}),
    ):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "canonical", "--input", str(bad))
        assert code == 2 and "error" in json.loads(err)
    # an explicit width is never replaced by the inferred one
    for m in ("0", "17"):
        code, out, err = run_cli(
            capsys, "canonical", "--p", "2", "--k", "2", "--m", m, "--gens", "2,1",
        )
        assert code == 2 and out == ""
        assert f"ambient rank {m} out of range" in json.loads(err)["error"]
    for text in (json.dumps("ab"), json.dumps([[1, 0]])):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "canonical", "--input", str(bad))
        assert code == 2 and "not hold a JSON object" in err


def test_classify_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--k", "2", "--n", "4")
    assert code == 0
    assert "3 liftable" in out and "match=yes" in out


def test_classify_bound_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--p", "2", "--k", "2", "--n", "12", "--bound", "1024",
    )
    assert code == 3


def test_classify_n2(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--k", "2", "--n", "2")
    assert code == 0 and "all liftable: True" in out


@pytest.mark.parametrize("k,bound,code", [(1, 1, 3), (1, 2, 0), (2, 3, 3), (2, 4, 0)])
def test_classify_n2_applies_the_bound_to_p_to_the_k(capsys, k, bound, code):
    got, out, err = run_cli(
        capsys, "classify", "--p", "2", "--k", str(k), "--n", "2", "--bound", str(bound),
    )
    assert got == code
    assert ("all liftable: True" in out) == (code == 0)
    assert ("exceeds the bound" in err) == (code == 3)


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ("classify", "--p", "2", "--k", "1", "--n", "3"),
    ("classify", "--p", "2", "--k", "1", "--n", "2"),
    ("verify", "--grid", "2,1,3"),
    ("audit", "--p", "2", "--k", "1", "--n", "3"),
], ids=["classify", "classify-n2", "verify", "audit"])
def test_bound_below_1_exits_2(capsys, command, bound):
    # invalid input, not a bound that the point exceeds (exit 3)
    code, out, err = run_cli(capsys, *command, "--bound", bound)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"the bound must be at least 1, got {bound}"


def test_classify_n2_refuses_output(tmp_path, capsys):
    out_dir = tmp_path / "n2"
    code, out, err = run_cli(
        capsys, "classify", "--p", "2", "--k", "1", "--n", "2", "--output", str(out_dir),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "classify --n 2 writes no atlas"
    assert not out_dir.exists()


def test_classify_writes_atlas(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRANCHLIFT_OUTPUT_DIR", str(tmp_path))
    code, out, err = run_cli(
        capsys, "classify", "--p", "3", "--k", "1", "--n", "3", "--format", "json",
    )
    assert code == 0
    atlas = tmp_path / "census_p3_k1_n3.json"
    assert atlas.exists()
    doc = json.loads(atlas.read_text())
    assert doc["match"] is True
    assert json.loads(out)["match"] is True


def test_verify_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "2,1,3;3,1,3;2,2,4")
    assert code == 0
    assert "all match" in out


def test_verify_writes_atlases(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "2,1,3;2,1,4", "--output", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "census_p2_k1_n3.json").exists()
    assert (tmp_path / "census_p2_k1_n4.json").exists()


def test_back_to_back_calls_share_no_state(tmp_path, capsys, monkeypatch):
    # main keeps one parser for the process; a flag, an option or a bound
    # given to one call must not carry over to the next
    monkeypatch.delenv("BRANCHLIFT_OUTPUT_DIR", raising=False)
    unbranched = ("check", "--p", "2", "--k", "1", "--n", "4",
                  "--factors", "2", "--images", "1;1;0;0")
    assert run_cli(capsys, unbranched[0], "--lax", *unbranched[1:])[0] == 1
    assert run_cli(capsys, *unbranched)[0] == 2
    point = ("classify", "--p", "3", "--k", "1", "--n", "3")
    option, env = tmp_path / "option", tmp_path / "env"
    assert run_cli(capsys, *point, "--output", str(option))[0] == 0
    monkeypatch.setenv("BRANCHLIFT_OUTPUT_DIR", str(env))
    assert run_cli(capsys, *point)[0] == 0
    assert [f.name for f in env.iterdir()] == ["census_p3_k1_n3.json"]
    assert [f.name for f in option.iterdir()] == ["census_p3_k1_n3.json"]
    assert run_cli(capsys, *point, "--bound", "1")[0] == 3
    assert run_cli(capsys, *point)[0] == 0
    assert branchlift.cli.build_parser() is branchlift.cli.build_parser()
    # the format is read on each call: JSON, then text when none is given
    liftable = ("check", "--p", "2", "--k", "1", "--n", "3",
                "--factors", "2,2", "--images", "1,0;0,1;1,1")
    assert json.loads(run_cli(capsys, *liftable, "--format", "json")[1])["liftable"] is True
    assert run_cli(capsys, *liftable)[1] == "liftable\nkernel order 1\ndeck group Z2 x Z2\n"


def test_parser_built_on_first_call_not_at_import():
    src = str(Path(branchlift.__file__).resolve().parents[1])
    code = ("import branchlift.cli as cli; "
            "assert cli.build_parser.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", [
    ["classify", "--p", "3", "--k", "1", "--n", "3"],
    ["verify", "--grid", "2,1,3"],
])
@pytest.mark.parametrize("target", ["file", "below_file"])
@pytest.mark.parametrize("via", ["option", "env"])
def test_unusable_atlas_directory_exits_2(tmp_path, capsys, monkeypatch, command, target, via):
    # an existing file, or a path under one, cannot hold the atlas; exit 1
    # would read as a mismatch with the closed form
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out_dir = blocker if target == "file" else blocker / "sub"
    if via == "env":
        monkeypatch.setenv("BRANCHLIFT_OUTPUT_DIR", str(out_dir))
        code, out, err = run_cli(capsys, *command)
    else:
        code, out, err = run_cli(capsys, *command, "--output", str(out_dir))
    assert code == 2
    assert out == ""
    assert str(out_dir) in json.loads(err)["error"]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["verify", "audit"])
@pytest.mark.parametrize("bad,code,message", [
    ("2,1,2", 2, "use classify --n 2"),
    ("4,1,3", 2, "not prime"),
    ("2,0,3", 2, "k = 0"),
    ("2,2,30", 3, "exceeds the bound"),
])
def test_grid_checked_before_any_census(tmp_path, capsys, command, bad, code, message):
    # a bad point after a good one must not let the good point's census
    # print or write its atlas first
    atlas = tmp_path / "atlas"
    args = [command, "--grid", f"2,1,3;{bad}"]
    if command == "verify":
        args += ["--output", str(atlas)]
    got, out, err = run_cli(capsys, *args)
    assert got == code
    assert out == ""
    assert message in json.loads(err)["error"]
    assert not atlas.exists()


@pytest.mark.parametrize("n", [1, 0, -1])
def test_classify_too_few_points(capsys, n):
    code, out, err = run_cli(capsys, "classify", "--p", "2", "--k", "1", "--n", str(n))
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert "at least 2 marked points" in message and f"--n {n}" in message
    assert "classify_two_points" not in message


@pytest.mark.parametrize("command", ["verify", "audit"])
@pytest.mark.parametrize("bad", ["2,1", "2,1,5,7", "2,x,5"])
def test_malformed_grid_chunk_exits_2(capsys, command, bad):
    code, out, err = run_cli(capsys, command, "--grid", f"2,1,3;{bad}")
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert repr(bad) in message and "p,k,n" in message


@pytest.mark.parametrize("command", ["verify", "audit"])
@pytest.mark.parametrize("grid", [";", " ; ", ""])
def test_empty_grid_exits_2(tmp_path, capsys, command, grid):
    # an empty grid checks nothing, so it must neither pass nor fall back
    # to the default grid
    atlas = tmp_path / "atlas"
    args = [command, "--grid", grid]
    if command == "verify":
        args += ["--output", str(atlas)]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert "the grid has no points" in json.loads(err)["error"]
    assert not atlas.exists()


@pytest.mark.parametrize("command", ["verify", "audit"])
def test_repeated_grid_point_exits_2(tmp_path, capsys, command):
    # a repeated point would be reported, and its atlas written, twice
    atlas = tmp_path / "atlas"
    args = [command, "--grid", "2,1,3;2,1,4;2,1,3"]
    if command == "verify":
        args += ["--output", str(atlas)]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert "the grid repeats the point 2,1,3" in json.loads(err)["error"]
    assert not atlas.exists()


def test_audit_two_points_points_to_classify(capsys):
    code, out, err = run_cli(capsys, "audit", "--p", "2", "--k", "1", "--n", "2")
    assert code == 2 and out == ""
    assert "use classify --n 2" in json.loads(err)["error"]


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "2,1,4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert payload["entries"][0]["liftable"] == 2


def test_audit_single_point(capsys):
    code, out, _ = run_cli(capsys, "audit", "--p", "2", "--k", "2", "--n", "4")
    assert code == 0
    assert "ok" in out


def test_audit_grid(capsys):
    code, out, _ = run_cli(capsys, "audit", "--grid", "2,1,3;3,1,3")
    assert code == 0


def test_audit_rejects_partial_point(capsys):
    # a partial point would otherwise fall back silently to the default grid
    for args in (["--p", "2", "--k", "2"], ["--p", "2"], ["--k", "2"], ["--n", "4"]):
        code, out, err = run_cli(capsys, "audit", *args)
        assert code == 2
        assert out == ""
        assert "--n" in json.loads(err)["error"]


def test_audit_rejects_point_with_grid(capsys):
    # given both, the grid would otherwise be ignored without a word
    code, out, err = run_cli(
        capsys, "audit", "--p", "2", "--k", "1", "--n", "3", "--grid", "2,2,5;3,1,4",
    )
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert "--grid" in message and "--n" in message


def test_missing_args(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "2", "--k", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "check", "--p", "0", "--k", "1", "--n", "3")
    assert code == 2


@pytest.mark.parametrize("command", [
    ["classify", "--n", "3"],
    ["check", "--n", "3", "--factors", "2,2", "--images", "1,0;0,1;1,1"],
    ["canonical", "--gens", "1"],
])
@pytest.mark.parametrize("p,k,message", [
    ("0", "1", "p = 0 is not prime"),
    ("-1", "1", "p = -1 is not prime"),
    ("2", "0", "k = 0 must be at least 1"),
    ("0", "-1", "k = -1 must be at least 1"),
])
def test_nonpositive_p_and_k_refused_by_the_ring(capsys, command, p, k, message):
    code, out, err = run_cli(capsys, command[0], "--p", p, "--k", k, *command[1:])
    assert code == 2 and out == ""
    assert message in json.loads(err)["error"]


def run_entry_point(*args, timeout=None):
    # the child process must import the same package as this one, which
    # pytest's pythonpath setting alone does not pass on
    src = str(Path(branchlift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "branchlift", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def test_module_entry_point():
    proc = run_entry_point("check", "--p", "2", "--k", "1", "--n", "3",
                           "--factors", "2,2", "--images", "1,0;0,1;1,1")
    assert proc.returncode == 0
    assert "liftable" in proc.stdout


@pytest.mark.parametrize("args,code,message", [
    (("classify", "--p", "3", "--k", "3000000", "--n", "17"), 3,
     "p^(k*b) = 3^48000000 exceeds the bound"),
    (("canonical", "--p", "1000000000000000003", "--k", "1", "--gens", "1 0"), 2,
     "modulus p^k = 1000000000000000003 exceeds 65536"),
    (("verify", "--grid=-3,3000000,17"), 2, "p = -3 is not prime"),
])
def test_huge_parameters_refused_at_once(args, code, message):
    # neither the bound check nor the modulus check may compute p^(k*b)
    # or trial-divide p before refusing; each took seconds to minutes
    proc = run_entry_point(*args, timeout=10)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert message in json.loads(proc.stderr)["error"]


def test_huge_general_factor_order_refused_at_once(tmp_path):
    # trial division stops at MAX_MODULUS; the leftover factor is refused
    # by the modulus check, not factored up to its square root
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": 3,
        "factors": [1000000000000000003],
        "images": [[1], [1], [1000000000000000001]],
    }))
    proc = run_entry_point("check", "--input", str(path), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "modulus p^k = 1000000000000000003 exceeds 65536" in json.loads(proc.stderr)["error"]


def _doc(value) -> str:
    """The stdout of a command printing ``value`` as one indented document."""
    return json.dumps(value, indent=2) + "\n"


def _pinned(out: str, want: str) -> str:
    """``out`` as a pin compares it: the text itself, or for a census output
    pinned as ``sha256:...`` the SHA-256 of the text with every
    ``elapsed_ms`` value set to 0."""
    if not want.startswith("sha256:"):
        return out
    stable = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    return "sha256:" + hashlib.sha256(stable.encode()).hexdigest()


GENERAL_COVERS = {
    "general_liftable.json": {"n": 6, "factors": [6], "images": [[1]] * 6},
    "general_not_liftable.json": {"n": 4, "factors": [6], "images": [[1], [1], [5], [5]]},
}

# (arguments, exit code, text stdout, JSON stdout, stderr); "{dir}" in an
# argument is the directory holding GENERAL_COVERS
CLI_PINS = [
    pytest.param(
        ("check", "--p", "2", "--k", "1", "--n", "3", "--factors", "2,2",
         "--images", "1,0;0,1;1,1"), 0,
        "liftable\n"
        "kernel order 1\n"
        "deck group Z2 x Z2\n",
        _doc({"liftable": True, "witness": None, "kernel_order": 1, "deck_group": "Z2 x Z2"}),
        "",
        id="check-liftable",
    ),
    pytest.param(
        ("check", "--p", "2", "--k", "2", "--n", "4", "--factors", "2,4",
         "--images", "1,1;0,1;0,1;1,1"), 1,
        "not liftable (witness (1 2))\n"
        "kernel order 8\n"
        "deck group Z2 x Z4\n",
        _doc({"liftable": False, "witness": "(1 2)", "kernel_order": 8, "deck_group": "Z2 x Z4"}),
        "",
        id="check-adjacent-witness",
    ),
    pytest.param(
        ("check", "--lax", "--p", "2", "--k", "1", "--n", "3", "--factors", "2",
         "--images", "1;1;0"), 1,
        "not liftable (witness (2 3))\n"
        "kernel order 2\n"
        "deck group Z2\n",
        _doc({"liftable": False, "witness": "(2 3)", "kernel_order": 2, "deck_group": "Z2"}),
        "",
        id="check-lax-last-witness",
    ),
    pytest.param(
        ("check", "--p", "2", "--k", "1", "--n", "3", "--factors", "2", "--images", "1;1;0"), 2,
        "",
        "",
        '{"error": "validation failed: ZeroBranchImage"}\n',
        id="check-invalid",
    ),
    pytest.param(
        ("check", "--input", "{dir}/general_liftable.json"), 0,
        "liftable\n"
        "  p=2 part Z2: liftable\n"
        "  p=3 part Z3: liftable\n",
        _doc({"liftable": True, "parts": [
            {"p": 2, "k": 1, "deck_group": "Z2", "liftable": True, "witness": None},
            {"p": 3, "k": 1, "deck_group": "Z3", "liftable": True, "witness": None},
        ]}),
        "",
        id="check-general-liftable",
    ),
    pytest.param(
        ("check", "--input", "{dir}/general_not_liftable.json"), 1,
        "not liftable\n"
        "  p=2 part Z2: liftable\n"
        "  p=3 part Z3: not liftable (witness (2 3))\n",
        _doc({"liftable": False, "parts": [
            {"p": 2, "k": 1, "deck_group": "Z2", "liftable": True, "witness": None},
            {"p": 3, "k": 1, "deck_group": "Z3", "liftable": False, "witness": "(2 3)"},
        ]}),
        "",
        id="check-general-not-liftable",
    ),
    pytest.param(
        ("canonical", "--p", "2", "--k", "2", "--gens", "2,1"), 0,
        "subgroup of (Z/4)^2 with 2 basis rows, order 4\n"
        "basis:\n"
        "  [2 1]\n"
        "  [0 2]\n"
        "rank 1, exponents [0, 2]\n"
        "upper cofactor:\n"
        "  [1 2]\n"
        "  [0 1]\n"
        "column permutation: (1 2)\n"
        "round trip: ok\n",
        _doc({"subgroup": {"p": 2, "k": 2, "m": 2, "basis": [[2, 1], [0, 2]]}, "order": 4,
              "rank": 1, "exponents": [0, 2], "upper": [[1, 2], [0, 1]], "colperm": "(1 2)"}),
        "",
        id="canonical-eliminated",
    ),
    pytest.param(
        ("canonical", "--p", "2", "--k", "2", "--gens", "1,1;0,2"), 0,
        "subgroup of (Z/4)^2 with 2 basis rows, order 8\n"
        "basis:\n"
        "  [1 1]\n"
        "  [0 2]\n"
        "rank 2, exponents [0, 1]\n"
        "upper cofactor:\n"
        "  [1 1]\n"
        "  [0 1]\n"
        "column permutation: ()\n"
        "round trip: ok\n",
        _doc({"subgroup": {"p": 2, "k": 2, "m": 2, "basis": [[1, 1], [0, 2]]}, "order": 8,
              "rank": 2, "exponents": [0, 1], "upper": [[1, 1], [0, 1]], "colperm": "()"}),
        "",
        id="canonical-identity-shape",
    ),
    pytest.param(
        ("canonical", "--p", "2", "--k", "1", "--m", "2", "--gens", ""), 0,
        "subgroup of (Z/2)^2 with 0 basis rows, order 1\n"
        "basis:\n"
        "  (empty)\n"
        "rank 0, exponents [1, 1]\n"
        "upper cofactor:\n"
        "  [1 0]\n"
        "  [0 1]\n"
        "column permutation: ()\n"
        "round trip: ok\n",
        _doc({"subgroup": {"p": 2, "k": 1, "m": 2, "basis": []}, "order": 1,
              "rank": 0, "exponents": [1, 1], "upper": [[1, 0], [0, 1]], "colperm": "()"}),
        "",
        id="canonical-empty",
    ),
    pytest.param(
        ("classify", "--p", "2", "--k", "2", "--n", "2"), 0,
        "n=2: 3 subgroups, all liftable: True; 1 cover class with deck group Z4\n",
        _doc({"p": 2, "k": 2, "n": 2, "subgroups": [
            {"p": 2, "k": 2, "m": 1, "basis": [[1]]},
            {"p": 2, "k": 2, "m": 1, "basis": [[2]]},
            {"p": 2, "k": 2, "m": 1, "basis": []},
        ], "all_liftable": True, "cover_classes": 1}),
        "",
        id="classify-n2",
    ),
    pytest.param(
        ("classify", "--p", "2", "--k", "2", "--n", "5"), 0,
        "sha256:4e2a261caf9bb638d258b90a7da2cedb2598f7a5c936c52b834875dcccfa143e",
        "sha256:c720f7be1a0d5a002dafc0bb1560bde1f4b582c3140588fbb8d3cc5494a20296",
        "",
        id="classify-census",
    ),
    pytest.param(
        ("classify", "--lax", "--p", "3", "--k", "1", "--n", "4"), 0,
        "census p=3 k=1 n=4: 7 classes, 1 liftable, match=yes\n"
        "  deck Z3 x Z3 x Z3         kernel order 1      class size 1     liftable family 1\n"
        "  deck Z3 x Z3              kernel order 3      class size 4     not liftable\n"
        "  deck Z3 x Z3              kernel order 3      class size 3     not liftable\n"
        "  deck Z3 x Z3              kernel order 3      class size 6     not liftable\n"
        "  deck Z3                   kernel order 9      class size 6     not liftable\n"
        "  deck Z3                   kernel order 9      class size 4     not liftable\n"
        "  deck Z3                   kernel order 9      class size 3     not liftable\n",
        "sha256:fd821eec374f373bc0c7f5315bd46987547ad7a2fa0b9c00345d744f5ceeda1c",
        "",
        id="classify-lax",
    ),
    pytest.param(
        ("classify", "--p", "2", "--k", "2", "--n", "12", "--bound", "1024"), 3,
        "",
        "",
        '{"error": "ambient group order p^(k*b) = 2^22 exceeds the bound 1024"}\n',
        id="classify-bound-exceeded",
    ),
    pytest.param(
        ("classify", "--p", "2", "--k", "1", "--n", "1"), 2,
        "",
        "",
        '{"error": "a cover needs at least 2 marked points, got --n 1"}\n',
        id="classify-n1",
    ),
    pytest.param(
        ("verify",), 0,
        "p=2 k=1 n=3: classes=1 liftable=1 match=yes\n"
        "p=2 k=1 n=4: classes=3 liftable=2 match=yes\n"
        "p=2 k=1 n=5: classes=3 liftable=1 match=yes\n"
        "p=3 k=1 n=3: classes=2 liftable=2 match=yes\n"
        "p=3 k=1 n=4: classes=4 liftable=1 match=yes\n"
        "p=2 k=2 n=4: classes=17 liftable=3 match=yes\n"
        "p=2 k=2 n=5: classes=57 liftable=1 match=yes\n"
        "p=2 k=2 n=6: classes=364 liftable=2 match=yes\n"
        "p=3 k=2 n=3: classes=5 liftable=2 match=yes\n"
        "all match\n",
        "sha256:a09c433b3b5977be47c3df15825c60e35e4b1145c6785303c5802d9451e1b3e7",
        "",
        id="verify-default",
    ),
    pytest.param(
        ("verify", "--grid", "2,1,3;3,1,3"), 0,
        "p=2 k=1 n=3: classes=1 liftable=1 match=yes\n"
        "p=3 k=1 n=3: classes=2 liftable=2 match=yes\n"
        "all match\n",
        _doc({"all_match": True, "entries": [
            {"p": 2, "k": 1, "n": 3, "match": True, "classes": 1, "liftable": 1,
             "mismatches": []},
            {"p": 3, "k": 1, "n": 3, "match": True, "classes": 2, "liftable": 2,
             "mismatches": []},
        ]}),
        "",
        id="verify-grid",
    ),
    pytest.param(
        ("audit",), 0,
        "audit p=2 k=1 n=3: 1 liftable kernels, ok\n"
        "audit p=2 k=1 n=4: 2 liftable kernels, ok\n"
        "audit p=2 k=1 n=5: 1 liftable kernels, ok\n"
        "audit p=3 k=1 n=3: 2 liftable kernels, ok\n"
        "audit p=3 k=1 n=4: 1 liftable kernels, ok\n"
        "audit p=2 k=2 n=4: 3 liftable kernels, ok\n"
        "audit p=2 k=2 n=5: 1 liftable kernels, ok\n"
        "audit p=2 k=2 n=6: 2 liftable kernels, ok\n"
        "audit p=3 k=2 n=3: 2 liftable kernels, ok\n",
        '{"p": 2, "k": 1, "n": 3, "ok": true, "kernels": 1, "violations": []}\n'
        '{"p": 2, "k": 1, "n": 4, "ok": true, "kernels": 2, "violations": []}\n'
        '{"p": 2, "k": 1, "n": 5, "ok": true, "kernels": 1, "violations": []}\n'
        '{"p": 3, "k": 1, "n": 3, "ok": true, "kernels": 2, "violations": []}\n'
        '{"p": 3, "k": 1, "n": 4, "ok": true, "kernels": 1, "violations": []}\n'
        '{"p": 2, "k": 2, "n": 4, "ok": true, "kernels": 3, "violations": []}\n'
        '{"p": 2, "k": 2, "n": 5, "ok": true, "kernels": 1, "violations": []}\n'
        '{"p": 2, "k": 2, "n": 6, "ok": true, "kernels": 2, "violations": []}\n'
        '{"p": 3, "k": 2, "n": 3, "ok": true, "kernels": 2, "violations": []}\n',
        "",
        id="audit-default",
    ),
    pytest.param(
        ("audit", "--p", "2", "--k", "2", "--n", "4"), 0,
        "audit p=2 k=2 n=4: 3 liftable kernels, ok\n",
        '{"p": 2, "k": 2, "n": 4, "ok": true, "kernels": 3, "violations": []}\n',
        "",
        id="audit-point",
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("args,code,text,document,err", CLI_PINS)
def test_cli_output_pinned(tmp_path, capsys, monkeypatch, fmt, args, code, text, document, err):
    # stdout, stderr and exit code of every command in both formats, byte
    # for byte
    monkeypatch.delenv("BRANCHLIFT_OUTPUT_DIR", raising=False)
    for name, cover in GENERAL_COVERS.items():
        (tmp_path / name).write_text(json.dumps(cover))
    args = [a.replace("{dir}", str(tmp_path)) for a in args]
    got, out, got_err = run_cli(capsys, *args, "--format", fmt)
    want = text if fmt == "text" else document
    assert (got, _pinned(out, want), got_err) == (code, want, err)


@pytest.mark.parametrize("fmt,want", [
    ("text",
     "p=2 k=2 n=4: classes=17 liftable=3 match=NO\n"
     "  mismatch: unpredicted_liftable_class kernel=[[1, 0, 3], [0, 1, 3]] size=1\n"
     "MISMATCH FOUND\n"),
    ("json",
     _doc({"all_match": False, "entries": [
         {"p": 2, "k": 2, "n": 4, "match": False, "classes": 17, "liftable": 3, "mismatches": [
             {"kind": "unpredicted_liftable_class",
              "kernel": {"p": 2, "k": 2, "m": 3, "basis": [[1, 0, 3], [0, 1, 3]]},
              "size": 1, "witness": None},
         ]},
     ]})),
])
def test_verify_mismatch_output_pinned(capsys, monkeypatch, fmt, want):
    # family 3 dropped from the prediction at (2,2,4): its class lifts with
    # no prediction to match, and the entry's mismatches are a tuple of dicts
    original = census.predict_liftable
    monkeypatch.setattr(census, "predict_liftable",
                        lambda p, k, n: [pr for pr in original(p, k, n) if pr.family != 3])
    assert run_cli(capsys, "verify", "--grid", "2,2,4", "--format", fmt) == (1, want, "")

import json
import os
import subprocess
import sys
from pathlib import Path

import branchlift
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
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "check", "--input", str(bad))
    assert code == 2 and err


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


def test_canonical_edge_cases(capsys):
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


def test_missing_args(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "2", "--k", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "check", "--p", "0", "--k", "1", "--n", "3")
    assert code == 2


def test_module_entry_point():
    # the child process must import the same package as this one, which
    # pytest's pythonpath setting alone does not pass on
    src = str(Path(branchlift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "branchlift", "check", "--p", "2", "--k", "1",
         "--n", "3", "--factors", "2,2", "--images", "1,0;0,1;1,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "liftable" in proc.stdout

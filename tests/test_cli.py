import json
import subprocess
import sys

import pytest

from adkit import catalog, cli, fileio
from adkit.algebra import StructureConstants

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "adkit", *args],
                          capture_output=True, text=True)


def write_entry(tmp_path, entry_id, name=None, assign=None, n=None, force=False):
    path = tmp_path / f"{name or entry_id}.json"
    obj = catalog.get(entry_id,
                      assign=fileio.parse_assignment(assign) if assign else None,
                      n=n, strict=not force)
    path.write_text(fileio.render_algebra(obj))
    return path


def test_verify_passes_on_exported_entry(tmp_path):
    path = write_entry(tmp_path, "AD3_10")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "pass"
    assert report["results"]["defining_equations_hold"]


def test_verify_passes_on_zero_tensor_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 2, "kind": "antidendriform",
                                "params": [], "rhd": [], "lhd": []}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0


def test_verify_fails_on_corrupted_table(tmp_path):
    # flip one sign in AD3_10: e1 lhd e1 = +e2 instead of -e2
    doc = json.loads(fileio.render_algebra(catalog.get("AD3_10")))
    doc["lhd"] = [[1, 1, 2, "1"], [1, 2, 3, "1"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["status"] == "fail"
    failing = [name for name, data in report["results"]["identities"].items()
               if not data["ok"]]
    assert failing
    violation = report["results"]["identities"][failing[0]]["violations"][0]
    assert "triple" in violation and "residual" in violation


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_bad_coefficient_exits_2(tmp_path):
    path = tmp_path / "badcoeff.json"
    path.write_text(json.dumps({"dim": 2, "kind": "associative", "params": [],
                                "mul": [[1, 1, 2, "1/0"]]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2


def test_unknown_catalog_id_exits_2(tmp_path):
    proc = run_cli("catalog", "export", "AD7_1")
    assert proc.returncode == 2


def test_catalog_list_counts():
    proc = run_cli("catalog", "list")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    counts = report["results"]["counts"]
    assert counts["antidendriform_dim3_families"] == 23
    assert counts["associative_dim2"] == 7
    assert counts["associative_dim3_nilpotent"] == 6
    assert counts["antidendriform_dim2"] == 3


def test_catalog_verify_reports_known_defect():
    proc = run_cli("catalog", "verify")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["results"]["failures"] == ["AD3_17"]


def test_catalog_export_round_trip(tmp_path):
    out = tmp_path / "ad2_3.json"
    proc = run_cli("catalog", "export", "AD2_3", "-o", str(out))
    assert proc.returncode == 0
    again = fileio.parse_algebra(out.read_text())
    entry = catalog.get("AD2_3")
    assert again.rhd == entry.rhd and again.lhd == entry.lhd
    # the exported symbolic family still verifies
    proc = run_cli("verify", str(out))
    assert proc.returncode == 0


def test_enumerate_null_filiform_4_fails_to_exist(tmp_path):
    out = tmp_path / "mu4.json"
    run_cli("catalog", "export", "mu0", "--n", "4", "-o", str(out))
    proc = run_cli("enumerate", str(out))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["results"]["outcome"] == "no-structure"
    certs = report["results"]["infeasible_branches"]
    assert certs
    final_results = [c["certificate"][-1]["result"] for c in certs]
    assert any(r and "/" in r or (r or "").lstrip("-").isdigit()
               for r in final_results)


def test_enumerate_idempotent_algebra_infeasible(tmp_path):
    path = write_entry(tmp_path, "As2_2")
    proc = run_cli("enumerate", str(path))
    assert proc.returncode == 1


def test_enumerate_null_filiform_3_family(tmp_path):
    path = write_entry(tmp_path, "mu0", name="mu3", n=3)
    proc = run_cli("enumerate", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    fams = report["results"]["families"]
    assert len(fams) == 1 and fams[0]["params"] == ["p1"]


def test_enumerate_stuck_exits_3(tmp_path):
    path = write_entry(tmp_path, "As3_1")
    proc = run_cli("enumerate", str(path))
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["status"] == "inconclusive"


def test_split_budget_option(tmp_path):
    path = write_entry(tmp_path, "As3_3")
    ok = run_cli("enumerate", str(path))
    assert ok.returncode == 0
    starved = run_cli("enumerate", str(path), "--max-splits", "0")
    assert starved.returncode == 3
    report = json.loads(starved.stdout)
    assert any(f["stuck_reason"] == "split-budget"
               for f in report["results"]["constrained_families"])


def test_iso_witness_file_mode(tmp_path):
    a = write_entry(tmp_path, "AD3_8", name="a", assign="a=1,b=2")
    b = write_entry(tmp_path, "AD3_8", name="b", assign="a=-2,b=-1")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "dim": 3,
        "entries": [["1", "0", "0"], ["-3", "1", "0"], ["0", "0", "1"]]}))
    proc = run_cli("iso", str(a), str(b), "--witness", str(w))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["verified"]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({
        "dim": 3,
        "entries": [["1", "0", "0"], ["3", "1", "0"], ["0", "0", "1"]]}))
    proc = run_cli("iso", str(a), str(b), "--witness", str(wrong))
    assert proc.returncode == 1


def test_iso_search_and_separation(tmp_path):
    a21 = write_entry(tmp_path, "AD3_21", name="a21", assign="a=-1", force=True)
    a20 = write_entry(tmp_path, "AD3_20", name="a20", assign="a=0")
    proc = run_cli("iso", str(a21), str(a20), "--search")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["outcome"] == "found"
    assert report["results"]["witness_verified"]

    a5 = write_entry(tmp_path, "AD3_5", name="a5")
    a6 = write_entry(tmp_path, "AD3_6", name="a6")
    proc = run_cli("iso", str(a5), str(a6), "--search")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["outcome"] == "separated"
    assert report["results"]["separating_components"] == ["center_ad_dim"]


def test_iso_search_requires_instantiation(tmp_path):
    a = write_entry(tmp_path, "AD3_8", name="sym")
    proc = run_cli("iso", str(a), str(a), "--search")
    assert proc.returncode == 2


def test_analyze_null_filiform(tmp_path):
    path = write_entry(tmp_path, "mu0", name="mu3", n=3)
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    at = report["results"]["at"][0]
    assert at["power_dims"] == [3, 2, 1, 0]
    assert at["null_filiform"] and at["nilpotency_index"] == 4


def test_analyze_as3_2_center(tmp_path):
    path = write_entry(tmp_path, "As3_2")
    proc = run_cli("analyze", str(path))
    report = json.loads(proc.stdout)
    at = report["results"]["at"][0]
    assert at["center"] == {"dim": 1, "basis": [["0", "0", "1"]]}
    assert at["two_nilpotent"] is True  # all products land in the center
    mu3 = write_entry(tmp_path, "mu0", name="mu3two", n=3)
    at3 = json.loads(run_cli("analyze", str(mu3)).stdout)["results"]["at"][0]
    assert at3["two_nilpotent"] is False


def test_analyze_two_operation_file(tmp_path):
    path = write_entry(tmp_path, "AD3_5")
    proc = run_cli("analyze", str(path))
    report = json.loads(proc.stdout)
    assert report["results"]["two_nilpotent"] is True
    at = report["results"]["at"][0]
    assert at["center_ad"]["dim"] == 2
    assert at["center_sum"]["dim"] == 3
    assert "error" in at["quotient_by_center"]


@pytest.mark.parametrize("entry_id, points, per_point",
                         [("AD3_15", 625, 3), ("As3_5", 5, 1)])
def test_analyze_evaluates_each_tensor_once_per_point(
        tmp_path, monkeypatch, capsys, entry_id, points, per_point):
    # a pair point evaluates rhd, lhd and their sum once each; a unary
    # point its one tensor; every rank helper then reads the kept constant
    path = write_entry(tmp_path, entry_id)
    evaluate = StructureConstants._evaluate
    calls = []

    def counted(self):
        calls.append(self)
        return evaluate(self)

    monkeypatch.setattr(StructureConstants, "_evaluate", counted)
    assert cli.main(["analyze", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["at"]) == points
    assert len(calls) == per_point * points


@pytest.mark.parametrize("entry_id, assign, points", [
    ("AD3_15", "a=1/2,b=-2,g=3/4,l=5", 1),
    ("AD3_15", "a=1/2,l=-3", 25),
    ("As3_5", "l=2", 1),
])
def test_analyze_assign_matches_instantiated_export(tmp_path, capsys, entry_id,
                                                    assign, points):
    path = write_entry(tmp_path, entry_id)
    assert cli.main(["analyze", str(path), "--assign", assign]) == 0
    at = json.loads(capsys.readouterr().out)["results"]["at"]
    assert len(at) == points
    for point in at:
        values = ",".join(f"{k}={v}" for k, v in point.pop("assignment").items())
        moved = write_entry(tmp_path, entry_id, name="point", assign=values,
                            force=True)
        assert cli.main(["analyze", str(moved)]) == 0
        (expected,) = json.loads(capsys.readouterr().out)["results"]["at"]
        assert expected.pop("assignment") == {}
        assert point == expected


def test_reports_are_byte_identical_across_runs(tmp_path):
    path = write_entry(tmp_path, "mu0", name="mu3", n=3)
    first = run_cli("enumerate", str(path))
    second = run_cli("enumerate", str(path))
    assert first.stdout == second.stdout
    a = run_cli("catalog", "list")
    b = run_cli("catalog", "list")
    assert a.stdout == b.stdout


def test_plain_rendering(tmp_path):
    path = write_entry(tmp_path, "mu0", name="mu3", n=3)
    proc = run_cli("--plain", "analyze", str(path))
    assert proc.returncode == 0
    assert "null_filiform: True" in proc.stdout
    assert "{" not in proc.stdout.splitlines()[0]

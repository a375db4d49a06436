import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from adkit import catalog, cli, fileio, iso
from adkit.algebra import AdPair, StructureConstants
from adkit.errors import AlgebraFormatError, BudgetExceeded

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


def test_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe\x7b")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert f"error: {path}: not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_coefficient_exits_2(tmp_path):
    path = tmp_path / "badcoeff.json"
    path.write_text(json.dumps({"dim": 2, "kind": "associative", "params": [],
                                "mul": [[1, 1, 2, "1/0"]]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2


def test_unknown_catalog_id_exits_2(tmp_path):
    proc = run_cli("catalog", "export", "AD7_1")
    assert proc.returncode == 2


def test_witness_file_that_is_not_an_object_exits_2(tmp_path):
    a = write_entry(tmp_path, "AD3_10")
    w = tmp_path / "w.json"
    w.write_text("[1, 2]")
    proc = run_cli("iso", str(a), str(a), "--witness", str(w))
    assert proc.returncode == 2
    assert "error: top level must be an object" in proc.stderr


def test_algebra_and_witness_files_share_the_document_checks():
    for text, message in (("{", "not valid JSON"), ("[1, 2]", "top level must be an object"),
                          ('{"dim": 0}', "'dim' must be a positive integer"),
                          ('{"dim": "3"}', "'dim' must be a positive integer"),
                          ('{"dim": true}', "'dim' must be a positive integer")):
        for parse in (fileio.parse_algebra, fileio.parse_witness):
            with pytest.raises(AlgebraFormatError, match=message):
                parse(text)


def test_boolean_index_is_a_bad_row_exits_2(tmp_path):
    # JSON true is not the index 1
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"dim": 1, "kind": "associative",
                                "mul": [[True, 1, 1, "1"]]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "error: bad row in 'mul': [True, 1, 1, '1']" in proc.stderr


def test_quadratic_witness_file_mixes_plain_and_sqrt_entries(tmp_path):
    # under a radicand the plain entries are read in Q(sqrt 2)
    rhd = StructureConstants.from_table(3, {(2, 2, 3): "2"})
    lhd = StructureConstants.from_table(3, {(1, 1, 3): "1", (2, 2, 3): "-2"})
    a = tmp_path / "sqrt2.json"
    a.write_text(fileio.render_algebra(AdPair(rhd, lhd)))
    b = write_entry(tmp_path, "AD3_22", name="ad3_22", assign="a=0,b=0")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"dim": 3, "radicand": "2", "entries": [
        [["0", "1"], "0", "0"], ["0", "1", "0"], ["0", "0", ["2", "0"]]]}))
    proc = run_cli("iso", str(a), str(b), "--witness", str(w))
    assert proc.returncode == 0
    results = json.loads(proc.stdout)["results"]
    assert (results["verified"], results["determinant"]) == (True, "2*sqrt(2)")
    w.write_text(json.dumps({"dim": 3, "radicand": "2", "entries": [
        [["0", "1"], "0", "0"], ["0", "a", "0"], ["0", "0", "2"]]}))
    proc = run_cli("iso", str(a), str(b), "--witness", str(w))
    assert proc.returncode == 2
    assert "error: parametric entries cannot mix with a radicand" in proc.stderr


def test_witness_radicand_is_a_string_or_an_integer(tmp_path):
    rhd = StructureConstants.from_table(3, {(2, 2, 3): "2"})
    lhd = StructureConstants.from_table(3, {(1, 1, 3): "1", (2, 2, 3): "-2"})
    a = tmp_path / "sqrt2.json"
    a.write_text(fileio.render_algebra(AdPair(rhd, lhd)))
    b = write_entry(tmp_path, "AD3_22", name="ad3_22", assign="a=0,b=0")
    w = tmp_path / "w.json"
    for radicand, code in ((True, 2), (2.5, 2), (2, 0)):
        w.write_text(json.dumps({"dim": 3, "radicand": radicand, "entries": [
            [["0", "1"], "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]}))
        proc = run_cli("iso", str(a), str(b), "--witness", str(w))
        assert proc.returncode == code, radicand
        if code:
            assert "radicand" in proc.stderr and "Traceback" not in proc.stderr
        else:
            assert json.loads(proc.stdout)["results"]["verified"]


def test_parse_radicand():
    assert fileio.parse_radicand(None) is None
    assert (fileio.parse_radicand("-3/2"), fileio.parse_radicand(2)) == (Fraction(-3, 2), 2)
    for value, message in ((True, "radicand must be a string or an integer, got true"),
                           (2.5, "got 2.5"), ([2], "got \\[2\\]"),
                           ("x", "bad radicand 'x'"),
                           ("9/4", "radicand 9/4 is a rational square"),
                           (0, "radicand 0 is a rational square")):
        with pytest.raises(AlgebraFormatError, match=message):
            fileio.parse_radicand(value)


def test_quadratic_witness_on_a_parametric_pair_exits_2(tmp_path):
    a = write_entry(tmp_path, "AD3_22")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"dim": 3, "radicand": "2", "entries": [
        [["0", "1"], "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]}))
    proc = run_cli("iso", str(a), str(a), "--witness", str(w))
    assert proc.returncode == 2
    assert "error: no value for a" in proc.stderr


def test_quadratic_entry_whose_parts_are_not_strings_exits_2(tmp_path):
    a = write_entry(tmp_path, "AD3_10")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"dim": 3, "radicand": "2", "entries": [
        [[1, 0], "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    proc = run_cli("iso", str(a), str(a), "--witness", str(w))
    assert proc.returncode == 2
    assert "error: bad witness entry [1, 0]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_params_that_are_not_a_list_exit_2(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"dim": 2, "kind": "antidendriform",
                                "params": 5, "rhd": [], "lhd": []}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "error: 'params' must be a list" in proc.stderr


def test_kind_names_the_tables_a_file_needs():
    for doc, message in (
            ({"kind": ["associative"]}, "'kind' must be 'associative' or 'antidendriform'"),
            ({"kind": "associative", "rhd": []}, "associative file needs a 'mul' table"),
            ({"kind": "antidendriform", "rhd": 1}, "antidendriform file needs a 'lhd' table"),
            ({"kind": "antidendriform", "rhd": 1, "lhd": []}, "'rhd' must be a list")):
        with pytest.raises(AlgebraFormatError, match=message):
            fileio.parse_algebra(json.dumps({"dim": 2, **doc}))


def test_export_dimension_below_one_exits_2():
    proc = run_cli("catalog", "export", "mu0", "--n", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument --n: must be at least 1" in proc.stderr


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


def test_enumerate_over_the_residual_budget_exits_3(tmp_path, monkeypatch):
    from adkit import solver
    path = write_entry(tmp_path, "mu0", name="mu3", n=3)
    monkeypatch.setattr(solver, "RESIDUAL_BUDGET", 7 * 3 ** 4 - 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["enumerate", str(path)])
    assert code == 3
    report = json.loads(out.getvalue())
    assert report["status"] == "inconclusive"
    assert report["results"]["outcome"] == "inconclusive"
    assert report["results"]["budget"] == "residual-budget"
    assert "residual-budget" in report["results"]["reason"]


def test_split_budget_option(tmp_path):
    path = write_entry(tmp_path, "As3_3")
    ok = run_cli("enumerate", str(path))
    assert ok.returncode == 0
    starved = run_cli("enumerate", str(path), "--max-splits", "0")
    assert starved.returncode == 3
    report = json.loads(starved.stdout)
    assert any(f["stuck_reason"] == "split-budget"
               for f in report["results"]["constrained_families"])


@pytest.mark.parametrize("entry_id", ["As2_1", "As2_3"])
def test_zero_step_budget_exits_3(tmp_path, capsys, entry_id):
    path = str(write_entry(tmp_path, entry_id))
    assert cli.main(["enumerate", path, "--depth", "0"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "inconclusive"
    constrained = report["results"]["constrained_families"]
    assert constrained
    assert all(f["stuck_reason"] == "step-budget" for f in constrained)


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


def test_iso_witness_reads_each_file_once(tmp_path, monkeypatch, capsys):
    a = write_entry(tmp_path, "AD3_8", name="a", assign="a=1,b=2")
    b = write_entry(tmp_path, "AD3_8", name="b", assign="a=-2,b=-1")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "dim": 3,
        "entries": [["1", "0", "0"], ["-3", "1", "0"], ["0", "0", "1"]]}))
    paths = [str(a), str(b), str(w)]
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert cli.main(["iso", str(a), str(b), "--witness", str(w)]) == 0
    monkeypatch.undo()
    assert [opened.count(path) for path in paths] == [1, 1, 1]
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert inputs == [{"path": path,
                       "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
                      for path in paths]


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


def test_iso_search_computes_each_fingerprint_once(tmp_path, monkeypatch):
    # the report's two fingerprints are the ones the search compared
    calls = []
    original = iso.fingerprint

    def counted(ad):
        calls.append(ad)
        return original(ad)

    monkeypatch.setattr(iso, "fingerprint", counted)
    a21 = write_entry(tmp_path, "AD3_21", name="a21", assign="a=-1", force=True)
    a20 = write_entry(tmp_path, "AD3_20", name="a20", assign="a=0")
    a5 = write_entry(tmp_path, "AD3_5", name="a5")
    a6 = write_entry(tmp_path, "AD3_6", name="a6")
    for a, b, outcome in ((a21, a20, "found"), (a5, a6, "separated")):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["iso", str(a), str(b), "--search"])
        report = json.loads(out.getvalue())
        assert (code, report["results"]["outcome"]) == (0, outcome)
        assert len(calls) == 2
        assert report["results"]["fingerprint_a"] == cli._fingerprint_dict(
            original(calls[0]))


def test_iso_search_radicand_and_inconclusive_outcomes(tmp_path, capsys):
    # e2>e2 = 2e3 against AD3_22(0,0): every witness needs sqrt(2)
    rhd = StructureConstants.from_table(3, {(2, 2, 3): "2"})
    lhd = StructureConstants.from_table(3, {(1, 1, 3): "1", (2, 2, 3): "-2"})
    a = tmp_path / "sqrt2.json"
    a.write_text(fileio.render_algebra(AdPair(rhd, lhd)))
    b = write_entry(tmp_path, "AD3_22", name="ad3_22", assign="a=0,b=0")

    def search(*options):
        code = cli.main(["iso", str(a), str(b), "--search", *options])
        out, err = capsys.readouterr()
        return code, out, err

    code, out, _ = search("--radicand", "2", "--bound", "2")
    results = json.loads(out)["results"]
    assert (code, results["outcome"], results["witness_verified"]) == (0, "found", True)
    code, out, err = search("--radicand", "4")
    assert (code, out) == (2, "") and "radicand 4 is a rational square" in err
    code, out, _ = search("--bound", "1")
    report = json.loads(out)
    assert (code, report["status"]) == (3, "inconclusive")
    assert (report["results"]["outcome"], report["results"]["examined"]) == ("not_found", 127)


def test_iso_search_requires_instantiation(tmp_path):
    a = write_entry(tmp_path, "AD3_8", name="sym")
    proc = run_cli("iso", str(a), str(a), "--search")
    assert proc.returncode == 2


@pytest.mark.parametrize("entry_id, args", [
    ("AD3_10", ["iso", "--search", "--bound", "0"]),
    ("AD3_10", ["iso", "--search", "--bound", "-2"]),
    ("As2_1", ["enumerate", "--max-splits", "-1"]),
    ("As2_1", ["enumerate", "--depth", "-5"]),
])
def test_budget_below_its_floor_is_a_usage_error(tmp_path, entry_id, args):
    path = str(write_entry(tmp_path, entry_id))
    command, *options = args
    files = [path, path] if command == "iso" else [path]
    proc = run_cli(command, *files, *options)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {options[-2]}: must be at least" in proc.stderr


def test_search_bound_above_its_budget_builds_nothing(tmp_path, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(iso, "rational_grid", lambda bound: built.append(bound))
    monkeypatch.setattr(iso, "fingerprint", lambda ad: built.append(ad))
    path = str(write_entry(tmp_path, "AD3_10"))
    assert iso.SEARCH_BOUND_BUDGET == 16
    code = cli.main(["iso", path, path, "--search", "--bound", "17"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "search-bound" in err and "17" in err
    assert built == []


@pytest.mark.parametrize("argv", [
    ["verify", "{file}"], ["analyze", "{file}"], ["enumerate", "{file}"],
    ["iso", "{file}", "{file}", "--search"],
    ["catalog", "export", "mu0", "--n", "100000"],
])
def test_dimension_above_its_budget_builds_nothing(tmp_path, monkeypatch, capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("built past the dimension-budget")

    # a tensor of this dimension would hold 10^15 entries: nothing may build one
    monkeypatch.setattr(StructureConstants, "from_table", unreachable)
    monkeypatch.setattr(catalog, "null_filiform", unreachable)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 100000, "kind": "associative", "mul": []}))
    code = cli.main([arg.format(file=path) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "dimension-budget" in err and "100000" in err
    assert fileio.DIMENSION_BUDGET == 32


def test_dimension_budget_admits_its_bound():
    fileio.check_dimension(fileio.DIMENSION_BUDGET)
    assert fileio.parse_witness(json.dumps(
        {"dim": 32, "entries": [["0"] * 32] * 32})).entries[31][31] == 0
    with pytest.raises(BudgetExceeded, match="dimension-budget"):
        fileio.parse_witness(json.dumps({"dim": 33, "entries": [["0"] * 33] * 33}))


def test_assignment_of_an_unknown_name_exits_2(tmp_path, capsys):
    path = str(write_entry(tmp_path, "AD2_3"))
    assert cli.main(["analyze", path, "--assign", "L=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown parameter 'L'; allowed: a, b, g, l" in err
    with pytest.raises(AlgebraFormatError, match="unknown parameter 'n'"):
        fileio.parse_assignment("a=1,n=2")


def test_zero_split_and_step_budgets_stay_valid():
    args = cli.build_parser().parse_args(
        ["enumerate", "f.json", "--max-splits", "0", "--depth", "0"])
    assert (args.max_splits, args.depth) == (0, 0)


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
                         [("AD3_15", 625, 2), ("As3_5", 5, 1)])
def test_analyze_evaluates_each_tensor_once_per_point(
        tmp_path, monkeypatch, capsys, entry_id, points, per_point):
    # a pair point evaluates rhd and lhd once each, and its sum is read from
    # their constants; a unary point evaluates its one tensor; every rank
    # helper then reads the kept constant
    path = write_entry(tmp_path, entry_id)
    evaluate = StructureConstants._evaluate
    calls = []

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(StructureConstants, "_evaluate", counted)
    assert cli.main(["analyze", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["at"]) == points
    assert len(calls) == per_point * points
    assert len({tuple(sorted(point.items())) for point in calls}) == points


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


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # main builds its parser once per process; no option of one call may
    # carry over to the next, and each report equals a fresh process's
    path = str(write_entry(tmp_path, "AD3_15"))
    calls = [["analyze", path, "--assign", "a=1/2,l=-3"],
             ["--plain", "analyze", path],
             ["analyze", path, "--assign"],  # usage error: no value
             ["analyze", path]]
    codes, outputs = [], []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
        outputs.append(out.out)
    assert codes == [0, 0, 2, 0]
    first, plain, usage, last = outputs
    assert len(json.loads(first)["results"]["at"]) == 25
    assert plain.startswith("command: analyze")
    assert usage == ""
    report = json.loads(last)
    assert report["options"]["assign"] == {}
    assert len(report["results"]["at"]) == 625


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

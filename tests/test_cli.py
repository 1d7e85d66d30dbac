import json

import pytest

from aeaqecc import cli
from aeaqecc.cli import main
from aeaqecc.enumeration import DEFAULT_BUDGET
from aeaqecc.fields import FiniteField, field_create
from aeaqecc.tables import golden_lines


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("AEAQECC_BUDGET", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_code(path, field, n, rows):
    lines = [f"field {field}", f"n {n}", f"k {len(rows)}"]
    lines += ["row " + " ".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_gv_threshold_example(capsys):
    code, out, err = run(capsys, "gv-threshold", "--q", "4", "--n", "15",
                         "--k1", "3", "--k2", "1", "--c", "1")
    assert code == 0
    assert out == "(2,1)\n"
    assert err == ""


def test_gv_threshold_json(capsys):
    code, out, _ = run(capsys, "gv-threshold", "--format", "json", "--q", "4",
                       "--n", "15", "--k1", "3", "--k2", "1", "--c", "1")
    assert code == 0
    assert json.loads(out) == {"dz_threshold": 2, "dx_threshold": 1}


def test_gv_check_holds_at_threshold(capsys):
    base = ["gv-check", "--q", "4", "--n", "15", "--k1", "3", "--k2", "1",
            "--c", "1"]
    code, out, _ = run(capsys, *base, "--dz", "2", "--dx", "1")
    assert code == 0
    assert "holds = true" in out
    code, out, _ = run(capsys, *base, "--dz", "3", "--dx", "2")
    assert code == 0
    assert "holds = false" in out
    assert "sum = " in out


def test_gv_check_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "gv-check", "--q", "4", "--n", "15", "--k1", "3",
                       "--k2", "1", "--c", "2", "--dz", "2", "--dx", "1")
    assert code == 2
    assert err != ""


def test_analyze_css_pair(capsys, tmp_path):
    a = write_code(tmp_path / "a.code", 2, 3, [[1, 1, 1]])
    b = write_code(tmp_path / "b.code", 2, 3, [[1, 0, 1]])
    code, out, _ = run(capsys, "analyze", a, b)
    assert code == 0
    assert out.splitlines()[0] == "[[3, 1, 2/1; 0]]_2"
    assert "c = 0" in out
    assert "CSS-compatible pair" in out
    assert "exceeds finite GV = false" in out


def test_analyze_gf32_exact_distances(capsys, tmp_path):
    # five-bit entries: each coordinate must get a lane of its own
    a = write_code(tmp_path / "a.code", 32, 5,
                   [[1, 0, 4, 22, 12], [0, 1, 5, 26, 19]])
    b = write_code(tmp_path / "b.code", 32, 5, [[1, 1, 1, 1, 1]])
    code, out, _ = run(capsys, "analyze", a, b, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dz"] == {"value": 3, "exact": True, "enumerated": 32**3 - 1}
    assert doc["dx"] == {"value": 2, "exact": True, "enumerated": 32**4 - 1}


def test_analyze_over_gf4096(capsys, tmp_path):
    # files over GF(2^12) are reduced and multiplied by the field's exp/log
    # arithmetic like any other field's
    a = write_code(tmp_path / "a.code", "2^12", 4, [[1, 2, 3, 4]])
    b = write_code(tmp_path / "b.code", "2^12", 4, [[5, 6, 7, 8]])
    code, out, err = run(capsys, "analyze", a, b)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["[[4, 3, >=1/>=1; 1]]_4096", "k1 = 1, k2 = 1, c = 1"]


def test_analyze_parse_error_has_location(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("field 2\nn 3\nk 1\nrow 1 2 1\n")
    good = write_code(tmp_path / "b.code", 2, 3, [[1, 0, 1]])
    code, out, err = run(capsys, "analyze", str(bad), good)
    assert code == 3
    assert "line 4" in err
    assert out == ""


def test_analyze_missing_file(capsys, tmp_path):
    good = write_code(tmp_path / "b.code", 2, 3, [[1, 0, 1]])
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.code"), good)
    assert code == 3
    assert err != ""


def test_analyze_mismatched_fields(capsys, tmp_path):
    a = write_code(tmp_path / "a.code", 2, 3, [[1, 1, 1]])
    b = write_code(tmp_path / "b.code", 4, 3, [[1, 0, 1]])
    code, _, err = run(capsys, "analyze", a, b)
    assert code == 3
    assert err != ""


def test_analyze_degenerate_pair_is_usage_error(capsys, tmp_path):
    # the [3, 1] repetition code and its [3, 2] dual: k = 0, so dz and dx
    # are undefined; the files themselves are well formed
    a = write_code(tmp_path / "a.code", 2, 3, [[1, 1, 1]])
    b = write_code(tmp_path / "b.code", 2, 3, [[1, 1, 0], [0, 1, 1]])
    code, out, err = run(capsys, "analyze", a, b)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "dz is undefined" in err


def test_analyze_bound_only_under_small_budget(capsys, tmp_path):
    a = write_code(tmp_path / "a.code", 2, 12, [[1] * 12])
    code, out, _ = run(capsys, "analyze", a, a, "--budget", "1024")
    assert code == 0
    assert out.splitlines()[0] == "[[12, 10, >=1/>=1; 0]]_2"
    assert "not evaluated (bound-only distances)" in out


def test_analyze_env_budget_and_flag_override(capsys, tmp_path, monkeypatch):
    a = write_code(tmp_path / "a.code", 2, 12, [[1] * 12])
    monkeypatch.setenv("AEAQECC_BUDGET", "1024")
    code, out, _ = run(capsys, "analyze", a, a)
    assert code == 0
    assert ">=1" in out.splitlines()[0]
    code, out, _ = run(capsys, "analyze", a, a, "--budget", str(1 << 20))
    assert code == 0
    assert out.splitlines()[0] == "[[12, 10, 2/2; 0]]_2"


def test_bad_env_budget(capsys, tmp_path, monkeypatch):
    a = write_code(tmp_path / "a.code", 2, 3, [[1, 1, 1]])
    monkeypatch.setenv("AEAQECC_BUDGET", "plenty")
    code, _, err = run(capsys, "analyze", a, a)
    assert code == 2
    assert "AEAQECC_BUDGET" in err


def test_budget_floor(capsys):
    code, _, err = run(capsys, "tables", "--budget", "8")
    assert code == 2
    assert "1024" in err


def test_csv_limited_to_tables(capsys):
    code, _, err = run(capsys, "gv-check", "--format", "csv", "--q", "4",
                       "--n", "15", "--k1", "3", "--k2", "1", "--c", "1",
                       "--dz", "2", "--dx", "1")
    assert code == 2
    assert "csv" in err


def test_tables_csv_matches_golden(capsys):
    code, out, err = run(capsys, "tables", "--which", "1", "--format", "csv")
    assert code == 0
    assert err == ""
    assert out.splitlines() == golden_lines(1)


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--which", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []
    assert len(doc["table2"]) == 34
    assert doc["table2"][0]["c"] == 11


def test_tables_mismatch_under_reduced_budget(capsys):
    # exact cells in the golden cannot be reproduced without enumeration
    code, _, err = run(capsys, "tables", "--which", "1", "--budget", "1024")
    assert code == 1
    assert "golden has" in err


def test_bch_construct_by_indices(capsys):
    code, out, _ = run(capsys, "bch-construct", "--q", "5", "--n", "24",
                       "--s", "1", "--t", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[[24, 19, >=4/>=3; 3]]_5"
    assert lines[1] == "delta1 = 0 1 2 5 10"
    assert lines[2] == "delta2 = 0 19 23"
    assert lines[3] == "dz bound = 4"
    assert lines[4] == "dx bound = 3"


def test_bch_construct_by_labels(capsys):
    code, out, _ = run(capsys, "bch-construct", "--q", "2", "--n", "15",
                       "--labels1", "0 1 3 7", "--labels2", "0,1,3,7")
    assert code == 0
    assert out.splitlines()[0] == "[[15, 2, 10/10; 13]]_2"


def test_bch_construct_over_gf2048(capsys):
    # n = 23 splits over GF(2^11), in which the construction multiplies
    # the minimal polynomials of the binary code
    code, out, _ = run(capsys, "bch-construct", "--q", "2", "--n", "23",
                       "--s", "0", "--t", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["k"], doc["k1"], doc["k2"], doc["c"]) == (11, 12, 1, 1)
    assert doc["dz"] == {"enumerated": 2047, "exact": True, "value": 8}
    assert doc["dx"]["exact"] and doc["dx"]["value"] == 2


def test_bch_construct_over_gf65536(capsys):
    # n = 257 splits over GF(2^16), whose elements reach 65535
    code, out, err = run(capsys, "bch-construct", "--q", "2", "--n", "257",
                         "--labels1", "1", "--labels2", "3", "--budget", "1024")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "[[257, 225, >=5/>=5; 0]]_2"


def test_bch_construct_at_n_1023(capsys):
    code, out, err = run(capsys, "bch-construct", "--q", "2", "--n", "1023",
                         "--labels1", "1,3,5", "--labels2", "7", "--budget", "1024")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "[[1023, 983, >=7/>=3; 0]]_2"
    assert "dz bound = 7" in lines and "dx bound = 3" in lines


def test_bch_construct_usage_errors(capsys):
    code, _, err = run(capsys, "bch-construct", "--q", "2", "--n", "15")
    assert code == 2 and "either" in err
    code, _, err = run(capsys, "bch-construct", "--q", "2", "--n", "15",
                       "--s", "0", "--labels1", "0")
    assert code == 2
    code, _, err = run(capsys, "bch-construct", "--q", "2", "--n", "15",
                       "--labels1", "0 x", "--labels2", "0")
    assert code == 2 and "integers" in err
    code, _, err = run(capsys, "bch-construct", "--q", "2", "--n", "15",
                       "--s", "3", "--t", "1")
    assert code == 2


def test_bch_construct_needs_three_cosets(capsys):
    code, out, err = run(capsys, "bch-construct", "--q", "2", "--n", "1",
                         "--s", "0", "--t", "0")
    assert (code, out) == (2, "")
    assert err == "the construction needs at least three cyclotomic cosets; n=1 has 1 over GF(2)\n"


def test_bch_construct_code_field_without_pair_tables(capsys):
    # the codes over GF(2^12) are built and c is read off their defining
    # sets; at the default budget both scans are refused, and a budget
    # that admits them measures both distances through exp/log products
    args = ("bch-construct", "--q", "4096", "--n", "5",
            "--labels1", "1", "--labels2", "2")
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert "[[5, 3, >=2/>=2; 0]]_4096" in out
    code, out, err = run(capsys, *args, "--budget", str(4096 ** 4))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "[[5, 3, 2/2; 0]]_4096"


def test_bch_construct_degenerate_pair_is_usage_error(capsys):
    # dual(C1) lies inside C2, so dz is undefined; at n = 1 both codes
    # are all of GF(2)^1
    for n, labels1, labels2 in (("13", "1", "0"), ("1", "0", "0")):
        code, out, err = run(capsys, "bch-construct", "--q", "2", "--n", n,
                             "--labels1", labels1, "--labels2", labels2)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "dz is undefined" in err


def test_bch_construct_rejects_out_of_range_labels(capsys):
    code, out, err = run(capsys, "bch-construct", "--q", "2", "--n", "9",
                         "--labels1", "1", "--labels2", "99")
    assert code == 2 and out == ""
    assert err == "label 99 outside [0, 8]\n"


def test_enlarge_demo_human(capsys):
    code, out, _ = run(capsys, "enlarge-demo", "--q", "7")
    assert code == 0
    assert out == "before = [[6, 3, 2/3; 0]]_7\nafter  = [[6, 3, 3/3; 1]]_7\n"


def test_enlarge_demo_json(capsys):
    code, out, _ = run(capsys, "enlarge-demo", "--q", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["before"]["dz"]["value"] == 2
    assert doc["after"]["dz"]["value"] == 3
    assert doc["after"]["dz"]["exact"] is True
    assert doc["before"]["dx"] == doc["after"]["dx"]
    assert doc["before"]["k"] == doc["after"]["k"] == 4


def test_enlarge_demo_rejections(capsys):
    code, _, err = run(capsys, "enlarge-demo", "--q", "4")
    assert code == 2 and err != ""
    code, _, err = run(capsys, "enlarge-demo", "--q", "6")
    assert code == 2
    code, _, err = run(capsys, "enlarge-demo", "--q", "3")
    assert code == 2
    code, _, err = run(capsys, "enlarge-demo", "--q", "7", "--budget", "2048")
    assert code == 2 and "budget" in err
    # q^(q-2) is printed as a power, not in its thousands of digits, and
    # refused before any code is built
    for q in ("1024", "2048", "4096", "65536"):
        for fmt in ("human", "json"):
            code, out, err = run(capsys, "enlarge-demo", "--q", q, "--format", fmt)
            assert (code, out) == (2, "")
            assert err == (f"budget too small for this field: enumeration needs "
                           f"{q}^{int(q) - 2} codeword visits, budget is {DEFAULT_BUDGET}\n")
    # prime powers past the largest supported field
    for q in ("65537", "131072"):
        code, out, err = run(capsys, "enlarge-demo", "--q", q)
        assert (code, out) == (2, "")
        assert err == f"field order {q} beyond supported table size\n"


def test_enlarge_demo_refuses_before_building_the_field(capsys, monkeypatch):
    # GF(2^16) is not built for a refusal: the uncached constructor stands
    # in for field_create, so a field cached by another test cannot hide a
    # build from the spy
    builds = []
    original = FiniteField.__init__

    def spy(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "__init__", spy)
    monkeypatch.setattr(cli, "field_create", field_create.__wrapped__)
    code, out, err = run(capsys, "enlarge-demo", "--q", "65536")
    assert (code, out, builds) == (2, "", [])
    assert err.startswith("budget too small for this field: ")
    code, out, _ = run(capsys, "enlarge-demo", "--q", "7")
    assert code == 0 and (7, 1) in builds


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_output_is_deterministic(capsys):
    args = ("gv-check", "--q", "9", "--n", "40", "--k1", "10", "--k2", "5",
            "--c", "5", "--dz", "7", "--dx", "4")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second

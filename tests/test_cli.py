import json
from pathlib import Path

import numpy as np
import pytest

from nihobent import algebraic_degree, is_bent, make_tower, nonlinearity, table_from_hex
from nihobent.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_lk(tmp_path, capsys):
    code, out, _ = run(
        capsys, "construct", "--family", "lk", "--m", "5", "--r", "2",
        "--a", "auto", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    rec = report["functions"][0]
    assert rec["bent"] is True
    assert rec["degree"] == 3
    assert rec["params"]["family"] == "lk"
    # the emitted truth table round-trips to the same verdicts
    tower = make_tower(5)
    tt = table_from_hex(Path(report["files"]["truth_table"]).read_text().strip())
    assert is_bent(tt, tower).bent == rec["bent"]
    assert algebraic_degree(tt) == rec["degree"]
    assert nonlinearity(tt, tower) == rec["nonlinearity"]
    # saved report matches stdout
    saved = json.loads((tmp_path / "lk_m5.report.json").read_text())
    assert saved == report


def test_construct_cubic_m7(tmp_path, capsys):
    # "cubic" is accepted as an alias for the canonical family tag
    code, out, _ = run(
        capsys, "construct", "--family", "cubic", "--m", "7",
        "--I", "5", "--J", "2", "--a", "auto", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["functions"][0]["bent"] is True
    assert report["functions"][0]["params"]["family"] == "cubic_family"


def test_construct_rejects_gcd_violation(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--family", "lk", "--m", "6", "--r", "2",
        "--a", "auto", "--out", str(tmp_path),
    )
    assert code == 2
    assert "gcd" in err


def test_construct_non_bent_family_exits_nonzero(tmp_path, capsys):
    # g_lk2 at m=4, J=0 is empirically not bent: report says so, exit 1
    code, out, _ = run(
        capsys, "construct", "--family", "g_lk2", "--m", "4", "--J", "0",
        "--a", "auto", "--out", str(tmp_path),
    )
    assert code == 1
    rec = json.loads(out)["functions"][0]
    assert rec["bent"] is False
    assert "bent_witness" in rec


def test_opoly_terms_true(capsys):
    code, out, _ = run(capsys, "opoly", "--m", "5", "--terms", '[{"c":"0100","e":6}]')
    assert code == 0
    assert json.loads(out)["verdicts"][0]["is_opoly"] is True


def test_opoly_terms_false_with_witness(capsys):
    code, out, _ = run(capsys, "opoly", "--m", "4", "--terms", '[{"c":"0100","e":6}]')
    assert code == 1
    verdict = json.loads(out)["verdicts"][0]
    assert verdict["is_opoly"] is False
    assert set(verdict["witness"]) == {"beta_hex", "value_hex", "count"}


def test_opoly_parse_error(capsys):
    code, _, err = run(capsys, "opoly", "--m", "4", "--terms", "[{")
    assert code == 2
    assert "position" in err


def test_opoly_catalog(capsys):
    code, out, _ = run(capsys, "opoly", "--m", "7", "--catalog")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) >= 8
    assert all(v["is_opoly"] for v in verdicts)


def test_expand_check(capsys):
    code, out, _ = run(
        capsys, "expand", "--m", "3", "--d", "6", "--lambda", "01", "--check",
    )
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["pointwise_equal"] is True
    assert [t["exp"] for t in res["expansion"]["terms"]] == [22]
    assert res["expansion"]["self_conj"]["exp"] == 36
    assert res["properties"]["all_nonzero"] is True
    assert all(res["random_lambda_sweeps"])


def test_expand_rejects_d_zero(capsys):
    code, _, err = run(capsys, "expand", "--m", "4", "--d", "0")
    assert code == 2
    assert "d must be" in err


def test_expand_polynomial_mode(capsys):
    code, out, _ = run(capsys, "expand", "--m", "5", "--F", '[{"c":"0100","e":6}]')
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["function"]["bent"] is True


def test_expand_odd_exponent_mentions_parity(capsys):
    code, _, err = run(capsys, "expand", "--m", "5", "--F", '[{"c":"0100","e":5}]')
    assert code == 2
    assert "even" in err


def test_expand_deterministic_under_seed(capsys):
    _, out1, _ = run(capsys, "expand", "--m", "4", "--d", "6", "--check", "--seed", "7")
    _, out2, _ = run(capsys, "expand", "--m", "4", "--d", "6", "--check", "--seed", "7")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("seconds"), r2.pop("seconds")
    assert r1 == r2


def test_tables_m5(capsys):
    code, out, _ = run(capsys, "tables", "--m", "5")
    assert code == 0
    report = json.loads(out)
    rows = {r["family"]: r for r in report["rows"]}
    row1 = rows["frobenius_2k-1"]
    degs = {c["column"]: c["measured_degree"] for c in row1["cells"] if "measured_degree" in c}
    assert (degs["G1"], degs["G2"], degs["G3"]) == (3, 4, 5)
    z6 = rows["z6"]
    g1 = next(c for c in z6["cells"] if c["column"] == "G1")
    assert g1["measured_degree"] == 5


def test_walsh_roundtrip(tmp_path, capsys):
    run(
        capsys, "construct", "--family", "quadratic", "--m", "3",
        "--a", "01", "--out", str(tmp_path),
    )
    code, out, _ = run(
        capsys, "walsh", str(tmp_path / "quadratic_m3.tt.hex"),
        "--out", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    report = json.loads(out)
    assert report["functions"][0]["bent"] is True
    csv = Path(report["files"]["spectrum"]).read_text().strip().split("\n")
    assert len(csv) == 64
    assert all(int(line.split(",")[1]) in (-8, 8) for line in csv)


def test_info(capsys):
    code, out, _ = run(capsys, "info", "--m", "3")
    assert code == 0
    data = json.loads(out)
    tower = make_tower(3)
    assert int.from_bytes(bytes.fromhex(data["tower"]["modulus_hex"]), "little") == 67
    assert data["order"] == tower.order


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--m", "5"),
        ("construct", "--family", "lk", "--m", "5", "--r", "2"),
        ("opoly", "--m", "5", "--terms", '[{"e":6}]'),
        ("opoly", "--m", "5", "--terms", '[{"c":"0100"}]'),
    ],
    ids=["expand_no_d_or_F", "construct_lk_no_a", "opoly_term_no_c", "opoly_term_no_e"],
)
def test_missing_input_is_bad_input(capsys, argv):
    # exit 2 (bad input) with one error line, never a traceback or exit 1
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import spectrum_csv_oracle, spectrum_json_oracle
from nihobent import (
    algebraic_degree,
    bridge,
    is_bent,
    make_tower,
    niho,
    nonlinearity,
    opoly,
    table_from_hex,
    walsh,
)
from nihobent.boolfun import spectrum_to_csv, spectrum_to_json
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
        "--a", "auto", "--out", str(tmp_path / "new"),
    )
    assert code == 2
    assert "gcd" in err
    assert not (tmp_path / "new").exists()


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


def test_expand_check_reports_a_law_witness(capsys, monkeypatch):
    # a passing check carries no witness
    code, out, _ = run(capsys, "expand", "--m", "5", "--d", "6", "--check")
    assert code == 0 and "property_witnesses" not in json.loads(out)["results"][0]
    # flipping the ladder coefficients c' = 1 and 3 breaks the conjugation and odd-index
    # laws at both; each witness is the first violation, c' = 1
    real = bridge.expand_monomial
    flipped = []

    def with_flipped_coefficients(tower, d, lam, a):
        res = real(tower, d, lam, a)
        A = list(res.coeffs)
        A[0] ^= 1
        A[2] ^= 1
        flipped.append(A[0])
        return dataclasses.replace(res, coeffs=tuple(A))

    monkeypatch.setattr(bridge, "expand_monomial", with_flipped_coefficients)
    code, out, _ = run(capsys, "expand", "--m", "5", "--d", "6", "--check")
    assert code == 1
    res = json.loads(out)["results"][0]
    assert res["properties"]["conjugation"] is False and res["properties"]["odd_index"] is False
    witnesses = res["property_witnesses"]
    assert set(witnesses) == {"conjugation", "odd_index"}
    assert all(w["cprime"] == 1 and w["lhs_hex"] != w["rhs_hex"] for w in witnesses.values())
    # the odd-index law's left side is the coefficient itself
    assert witnesses["odd_index"]["lhs_hex"] == make_tower(5).element_hex(flipped[0])


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


@pytest.mark.parametrize("m", range(2, 8))
def test_tables_pass_at_every_small_m(capsys, m):
    code, out, err = run(capsys, "tables", "--m", str(m))
    if m % 2 == 0:  # the table has rows only for odd m: nothing to check is bad input
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        return
    # at m = 3 (k = 2) the cubic row would be z^16 = z^2, a Frobenius map; it is not emitted
    assert code == 0
    families = [r["family"] for r in json.loads(out)["rows"]]
    assert ("cubic" in families) == (m % 2 == 1 and m >= 5)


def test_tables_wrong_ambiguous_g3_fails(capsys, monkeypatch):
    # an ambiguous G3 candidate that is bent, of its stated degree, but not the
    # pipeline's map fails its cell and the exit code
    real = opoly.equivalence_table

    def with_wrong_g3(m):
        rows = real(m)
        i = next(i for i, row in enumerate(rows) if row.family == "cubic")
        row = rows[i]
        wrong = dataclasses.replace(row.g3, exponents=row.g1.exponents, degree=row.g1.degree)
        rows[i] = dataclasses.replace(row, g3=wrong)
        return rows

    monkeypatch.setattr(opoly, "equivalence_table", with_wrong_g3)
    code, out, _ = run(capsys, "tables", "--m", "5")
    assert code == 1
    cells = [(r["family"], c) for r in json.loads(out)["rows"] for c in r["cells"] if "pass" in c]
    failed = [(family, c) for family, c in cells if not c["pass"]]
    assert [(family, c["column"]) for family, c in failed] == [("cubic", "G3")]
    cell = failed[0][1]
    assert cell["ambiguous"] and cell["bent"] and not cell["matches_pipeline"]
    assert cell["measured_degree"] == cell["expected_degree"]
    # the witness is the first z where the cell's map (here G1's) and the pipeline's G3 differ
    tower = make_tower(5)
    cellmap = opoly.OPolyMap.from_terms(tower, [(1, e) for e in cell["exponents"]])
    g3 = opoly.inverse_map(opoly.transform_zFinv(opoly.inverse_map(cellmap)))
    z = next(int(z) for z in tower.tables.subfield_elements if cellmap(int(z)) != g3(int(z)))
    assert cell["pipeline_witness"] == {
        "z_hex": tower.element_hex(z),
        "cell_hex": tower.element_hex(cellmap(z)),
        "pipeline_hex": tower.element_hex(g3(z)),
    }


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


# m = 9: 2^18 rows, written in 4 blocks of 2^16
@pytest.mark.parametrize(
    "fmt, m", [("csv", 5), ("json", 5), ("csv", 9), ("json", 9)],
    ids=["csv", "json", "csv-m9", "json-m9"],
)
def test_walsh_file_matches_per_row_oracle(tmp_path, capsys, fmt, m):
    run(
        capsys, "construct", "--family", "quadratic", "--m", str(m),
        "--a", "01", "--out", str(tmp_path),
    )
    table = tmp_path / f"quadratic_m{m}.tt.hex"
    code, out, _ = run(capsys, "walsh", str(table), "--out", str(tmp_path), "--format", fmt)
    assert code == 0
    written = Path(json.loads(out)["files"]["spectrum"]).read_bytes()
    tower = make_tower(m)
    spec = walsh(table_from_hex(table.read_text().strip()), tower)
    oracle = spectrum_csv_oracle(spec, tower) if fmt == "csv" else spectrum_json_oracle(spec)
    assert written == oracle.encode()
    text = spectrum_to_csv(spec, tower) if fmt == "csv" else spectrum_to_json(spec)
    assert text.encode() == written


class ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_without_traceback(monkeypatch, capsys):
    # e.g. `nihobent opoly ... | head`: nothing could be written, so no check result
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["opoly", "--m", "3", "--terms", '[{"c":"01","e":-1}]']) == 2
    assert capsys.readouterr().err == ""


def test_info(capsys):
    code, out, _ = run(capsys, "info", "--m", "3")
    assert code == 0
    data = json.loads(out)
    tower = make_tower(3)
    assert int.from_bytes(bytes.fromhex(data["tower"]["modulus_hex"]), "little") == 67
    assert data["order"] == tower.order


# one construct case per registry name, each missing exactly one needed field
MISSING_FIELD = {
    "quadratic": ((), "a"),
    "binomial_3": ((), "b"),
    "binomial_16": ((), "b"),
    "lk_coeff": (("--r", "2"), "coeffs"),
    "qu_family": (("--r", "4", "--I", "2", "--J", "0", "--a", "auto"), "c"),
    "g_lk2": (("--a", "auto"), "J"),
    "cubic_family": (("--J", "2", "--a", "auto"), "I"),
    "cubic": (("--I", "5", "--a", "auto"), "J"),
    "trinomial_sum": (("--a", "auto"), "k"),
    "trinomial": (("--k", "4"), "a"),
}


@pytest.mark.parametrize(
    "argv, field",
    [
        (("expand", "--m", "5"), None),
        (("construct", "--family", "lk", "--m", "5", "--r", "2"), "a"),
        (("opoly", "--m", "5", "--terms", '[{"e":6}]'), None),
        (("opoly", "--m", "5", "--terms", '[{"c":"0100"}]'), None),
        (("opoly", "--m", "3", "--terms", '[{"c":"01","e":true}]'), None),
        *(
            (("construct", "--family", family, "--m", "7", *rest), field)
            for family, (rest, field) in MISSING_FIELD.items()
        ),
    ],
    ids=[
        "expand_no_d_or_F", "construct_lk_no_a",
        "opoly_term_no_c", "opoly_term_no_e", "opoly_term_bool_e",
        *(f"construct_{family}_no_{field}" for family, (_, field) in MISSING_FIELD.items()),
    ],
)
def test_missing_input_is_bad_input(capsys, argv, field):
    # exit 2 (bad input) with one error line, never a traceback or exit 1
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    if field is not None:
        assert err.endswith(f" needs parameter(s) {field}\n")


def test_missing_field_cases_cover_the_registry():
    assert set(MISSING_FIELD) | {"lk"} == set(niho.FAMILIES)


# one construct case per registry name: the fields it needs and some it does not take
EXTRA_FIELD = {
    "quadratic": (("--a", "01", "--r", "3", "--k", "9"), "r, k"),
    "binomial_3": (("--b", "01", "--a", "01"), "a"),
    "binomial_16": (("--b", "01", "--coeffs", "01"), "coeffs"),
    "lk": (("--r", "2", "--a", "auto", "--c", "1"), "c"),
    "lk_coeff": (("--r", "2", "--coeffs", "01,01", "--b", "01"), "b"),
    "qu_family": (("--r", "6", "--c", "1", "--I", "2", "--J", "1", "--a", "auto", "--k", "4"), "k"),
    "g_lk2": (("--J", "1", "--a", "auto", "--r", "6"), "r"),
    "cubic_family": (("--I", "5", "--J", "2", "--a", "auto", "--r", "5"), "r"),
    "cubic": (("--I", "5", "--J", "2", "--a", "auto", "--k", "4"), "k"),
    "trinomial_sum": (("--k", "4", "--a", "auto", "--I", "5", "--J", "2"), "I, J"),
    "trinomial": (("--k", "4", "--a", "auto", "--b", "01"), "b"),
}


@pytest.mark.parametrize("family", tuple(niho.FAMILIES))
def test_extra_input_is_bad_input(tmp_path, capsys, family):
    # a field the family does not take would be reported in params but never used
    rest, extra = EXTRA_FIELD[family]
    out_dir = tmp_path / "new"
    code, out, err = run(
        capsys, "construct", "--family", family, "--m", "7", *rest, "--out", str(out_dir),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: family {niho.FAMILIES[family].name} takes no parameter(s) {extra}\n"
    assert not out_dir.exists()


def test_construct_missing_param_leaves_no_out_dir(tmp_path, capsys):
    # the family parameters are checked before --a auto runs and --out is made
    out_dir = tmp_path / "new"
    code, out, err = run(
        capsys, "construct", "--family", "lk", "--m", "5", "--a", "auto", "--out", str(out_dir),
    )
    assert code == 2
    assert out == ""
    assert err == "error: family lk needs parameter(s) r\n"
    assert not out_dir.exists()


def test_construct_past_the_table_limit_leaves_no_out_dir(tmp_path, capsys):
    # the tower's tables are built before --out is made, so n = 24 makes no directory
    out_dir = tmp_path / "new"
    code, out, err = run(
        capsys, "construct", "--family", "quadratic", "--m", "12", "--a", "01",
        "--out", str(out_dir),
    )
    assert code == 2
    assert out == ""
    assert err == "error: table-backed operations unsupported for n=24\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "quadratic", "--m", "5", "--a", "zz"),
        ("construct", "--family", "binomial_3", "--m", "5", "--b", "zz"),
        ("construct", "--family", "lk_coeff", "--m", "5", "--r", "2", "--coeffs", "01,zz"),
        ("expand", "--m", "5", "--d", "6", "--lambda", "zz"),
        ("expand", "--m", "5", "--F", '[{"c":"zz","e":6}]'),
        ("opoly", "--m", "5", "--terms", '[{"c":"zz","e":6}]'),
        ("expand", "--m", "5", "--d", "6", "--lambda", ""),
        ("expand", "--m", "3", "--F", '[{"c":"","e":6}]'),
        ("opoly", "--m", "3", "--terms", '[{"c":"","e":6}]'),
        ("construct", "--family", "lk", "--m", "5", "--r", "2", "--a", ""),
        ("construct", "--family", "binomial_3", "--m", "5", "--b", ""),
        ("construct", "--family", "lk_coeff", "--m", "5", "--r", "2", "--coeffs", ""),
    ],
    ids=[
        "construct_a", "construct_b", "construct_coeffs", "expand_lambda", "expand_F", "opoly_terms",
        "expand_lambda_empty", "expand_F_empty", "opoly_terms_empty",
        "construct_a_empty", "construct_b_empty", "construct_coeffs_empty",
    ],
)
def test_malformed_hex_is_bad_input(tmp_path, monkeypatch, capsys, argv):
    # exit 2 with one error line that quotes the text that is not hexadecimal; "" is not 0
    monkeypatch.chdir(tmp_path)
    text = "zz" if any("zz" in arg for arg in argv) else ""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: encoding {text!r} is not a string of hex bytes\n"
    assert not any(tmp_path.iterdir())


def test_walsh_unreadable_table_is_bad_input(tmp_path, capsys):
    # a missing file and a directory both exit 2 with one error line
    for path in (tmp_path / "missing.tt.hex", tmp_path):
        code, out, err = run(capsys, "walsh", str(path), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_construct_has_no_d2_flag(tmp_path, capsys):
    # binomial_16 takes only its Niho exponent, so there is no --d2 (131 = 11 mod 15 is not Niho)
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "binomial_16", "--m", "4", "--b", "01", "--d2", "131",
              "--out", str(tmp_path / "new")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d2 131" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_expand_rejects_both_d_and_F(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--m", "3", "--d", "5", "--F", '[{"c":"01","e":6}]'])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "not allowed with" in out.err


@pytest.mark.parametrize(
    "extra", [("--lambda", "03"), ("--check",), ("--seed", "0")], ids=lambda e: e[0]
)
def test_expand_F_rejects_options_of_d(capsys, extra):
    # --lambda, --check and --seed apply to --d only; with --F they were silently ignored
    code, out, err = run(capsys, "expand", "--m", "5", "--F", '[{"c":"01","e":6}]', *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and extra[0] in err


def test_unwritable_out_is_bad_input(tmp_path, capsys):
    # --out under a regular file cannot be created: exit 2 before any work
    blocker = tmp_path / "file"
    blocker.write_text("")
    table = tmp_path / "q.tt.hex"
    table.write_text("ff" * 8 + "\n")
    bad = blocker / "out"
    for argv in (
        ("construct", "--family", "quadratic", "--m", "3", "--a", "01", "--out", str(bad)),
        ("walsh", str(table), "--out", str(bad)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {bad}: Not a directory\n"


def test_walsh_empty_table_is_bad_input(tmp_path, capsys):
    table = tmp_path / "empty.tt.hex"
    table.write_text("")
    code, out, err = run(capsys, "walsh", str(table), "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: truth table is empty\n"


def test_python_m_nihobent_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    ok = subprocess.run(
        [sys.executable, "-m", "nihobent", "info", "--m", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["command"] == "info"
    bad = subprocess.run(
        [sys.executable, "-m", "nihobent", "expand", "--m", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")

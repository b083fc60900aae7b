"""The benchmark's tracer patches nihobent by name, and its checks read the
CLI's output files; a rename or a format change must fail here."""

import importlib.util
from pathlib import Path

import pytest

import nihobent
from nihobent import gf2, opoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    before = {
        "walsh": nihobent.walsh,
        "pow_vec": gf2.FieldTower.__dict__["pow_vec"],
        "from_terms": opoly.OPolyMap.__dict__["from_terms"],
    }
    recorder = load("tracing").Recorder()
    try:
        recorder.install()
        assert recorder._patches
        assert nihobent.walsh is not before["walsh"]
    finally:
        recorder.uninstall()
    assert nihobent.walsh is before["walsh"]
    assert gf2.FieldTower.__dict__["pow_vec"] is before["pow_vec"]
    assert opoly.OPolyMap.__dict__["from_terms"] is before["from_terms"]


@pytest.mark.parametrize("workload", ["families", "opoly", "spectra"])
def test_small_benchmark_round_passes_its_checks(tmp_path, workload):
    # one round at the small scale, every output parsed and checked against the oracle
    res = load("run").run(workload, 7, 0, False, "small", out_root=tmp_path)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res["failures"]

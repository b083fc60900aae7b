"""The benchmark's tracer patches nihobent by name, and its checks read the
CLI's output files; a rename or a format change must fail here."""

import importlib.util
import inspect
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


def test_every_timed_span_names_a_public_callable():
    # a per-layer metric sums spans by name; a renamed or deleted function would read 0
    names = [name for spans in load("tracing").TIMED.values() for name in spans]
    for name in names:
        module, *path = name.split(".")
        mod = importlib.import_module(f"nihobent.{module}")
        assert not any(part.startswith("_") for part in path), name
        if len(path) == 1:  # a module function, which the tracer wraps where it is defined
            fn = getattr(mod, path[0], None)
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        else:  # an OPolyMap constructor
            assert path[0] == "OPolyMap" and len(path) == 2, name
            assert isinstance(opoly.OPolyMap.__dict__.get(path[1]), classmethod), name


@pytest.mark.parametrize("workload", ["families", "opoly", "spectra"])
def test_small_benchmark_round_passes_its_checks(tmp_path, workload):
    # one round at the small scale, every output parsed and checked against the oracle
    res = load("run").run(workload, 7, 0, False, "small", out_root=tmp_path)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res["failures"]

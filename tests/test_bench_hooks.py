"""The benchmark's tracer patches nihobent by name; a rename must fail here."""

import importlib.util
from pathlib import Path

import nihobent
from nihobent import gf2, opoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    before = {
        "walsh": nihobent.walsh,
        "pow_vec": gf2.FieldTower.__dict__["pow_vec"],
        "from_terms": opoly.OPolyMap.__dict__["from_terms"],
    }
    recorder = load_tracing().Recorder()
    try:
        recorder.install()
        assert recorder._patches
        assert nihobent.walsh is not before["walsh"]
    finally:
        recorder.uninstall()
    assert nihobent.walsh is before["walsh"]
    assert gf2.FieldTower.__dict__["pow_vec"] is before["pow_vec"]
    assert opoly.OPolyMap.__dict__["from_terms"] is before["from_terms"]

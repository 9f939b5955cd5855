"""The repository's tools run on the working tree."""

import importlib.util
import sys
from pathlib import Path

import qweinstein

ROOT = Path(__file__).resolve().parents[1]


def test_ab_compares_two_trees_in_one_process(capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")    # restored after the test; ab.main sets them too
    spec = importlib.util.spec_from_file_location("tools_ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    src = str(ROOT / "src")
    assert ab.main([src, src, "--workload", "transform_large", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("transform_large: 2 pairs, new/old median ")
    assert out.rstrip().endswith(", 0 failed")
    # each side ran its own copy of the package, and the tests' own import is left in place
    assert sys.modules["qweinstein"] is qweinstein
    assert sys.modules["ab_old"] is not sys.modules["ab_new"]

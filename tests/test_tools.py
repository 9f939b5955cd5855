"""The repository's tools run on the working tree."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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


def _refdump(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # refdump puts src/ first; undone after
    spec = importlib.util.spec_from_file_location("tools_refdump", ROOT / "tools" / "refdump.py")
    refdump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refdump)
    return refdump


def test_refdump_compare_lists_every_kind_of_difference(tmp_path, capsys, monkeypatch):
    refdump = _refdump(monkeypatch)
    base = {"a:values": np.array([1.0, 0.0]), "b:window": np.array([-2, 4, -2, 4])}

    def dump(name, **changes):
        path = tmp_path / f"{name}.npz"
        np.savez(path, **{**base, **changes})
        return str(path)

    same, other = dump("same"), dump("other")
    assert refdump.compare(same, other) == 0
    assert "values differ: 0\n" in capsys.readouterr().out

    assert refdump.compare(same, dump("changed", **{"a:values": np.array([1.5, 0.0])})) == 1
    assert "values differ: 1\n  a:values\n" in capsys.readouterr().out

    assert refdump.compare(same, dump("signed", **{"a:values": np.array([1.0, -0.0])})) == 1
    assert "only the sign of a zero differs: 1\n  a:values\n" in capsys.readouterr().out

    assert refdump.compare(same, dump("extra", **{"c:raises": np.array("ValueError")})) == 1
    assert "in one dump only: 1\n  c:raises\n" in capsys.readouterr().out

    # one line per field name, a key's last component: how many of its entries differ,
    # and by how much at most; a field whose entries all agree gets no line
    moved = {"x:a:tail": np.array(1.0 + 2.0 ** -52), "y:a:tail": np.array(1.0 + 2.0 ** -50),
             "x:a:values": np.array([1.0, 0.0]), "x:window": np.array([-2, 4, -3])}
    base.update({"x:a:tail": np.array(1.0), "y:a:tail": np.array(1.0),
                 "x:a:values": np.array([1.0, 0.0]), "x:window": np.array([-2, 4, -2])})
    assert refdump.compare(dump("fields"), dump("moved", **moved)) == 1
    out = capsys.readouterr().out
    assert "values differ: 3\n" in out
    assert "field tail: 2 differ, largest relative difference 8.882e-16\n" in out
    assert "field window: 1 differ, largest relative difference 2.500e-01\n" in out
    assert "field values:" not in out

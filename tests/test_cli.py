import json
import math
from dataclasses import fields

import numpy as np
import pytest

from qweinstein import (
    DivergenceError,
    LatticeWindow,
    PWmParams,
    QParams,
    bandwidth_estimate,
    embed_zeros,
    forward,
    inverse,
    lp_norm,
    pw_m_sup,
    support_radius,
)
from qweinstein.cli import (
    FileFormatError,
    JobConfig,
    main,
    random_even_bump,
    read_gridfunction,
    write_gridfunction,
)
from qweinstein.qcore import aligned_q

from . import oracles


def _write_config(cfg: JobConfig, path) -> None:
    """cfg as the key=value text JobConfig.from_file reads, one line a set field."""
    with open(path, "w") as fh:
        for f in fields(cfg):
            v = getattr(cfg, f.name)
            if v is not None:
                fh.write(f"{f.name}={v}\n")


def test_file_round_trip_csv(tmp_path):
    p = QParams(q=0.5, alpha=0.5)
    f = random_even_bump(p, LatticeWindow(-2, 3, -1, 2), seed=3, pad=1)
    path = tmp_path / "f.csv"
    write_gridfunction(f, str(path), "csv")
    g = read_gridfunction(str(path))
    assert g.params == f.params
    assert g.window.shape == f.window.shape
    assert np.array_equal(g.samples, f.samples)
    assert g.parity_y == f.parity_y


def test_file_round_trip_json(tmp_path):
    p = QParams(q=0.7, alpha=0.0)
    f = random_even_bump(p, LatticeWindow(0, 2, 0, 2), seed=4)
    path = tmp_path / "f.json"
    write_gridfunction(f, str(path), "json")
    g = read_gridfunction(str(path))
    assert np.array_equal(g.samples, f.samples)


def test_malformed_header_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("# nonsense v1\n1,0,0,1.0,0.0\n")
    rc = main(["transform", "--input", str(path), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert ":1:" in err


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[0,2] n2=[0,2]\n"
                    "sign,n1,n2,re,im\n"
                    "1,0,0,1.0\n")
    with pytest.raises(FileFormatError, match=":3:"):
        read_gridfunction(str(path))


def test_duplicate_point_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[0,2] n2=[0,2]\n"
                    "1,0,0,1.0,0.0\n"
                    "1,0,0,2.0,0.0\n")
    with pytest.raises(FileFormatError, match="duplicate"):
        read_gridfunction(str(path))


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["--q", "0.5", "--alpha", "0.0", "--seed", "9",
                   "gen", "--support=-1,2,-1,2", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_transform_round_trip_cli(tmp_path, capsys):
    src = tmp_path / "f.csv"
    fwd = tmp_path / "F.csv"
    back = tmp_path / "g.csv"
    assert main(["--q", "0.5", "--alpha", "0.0", "--seed", "5",
                 "gen", "--support=-1,2,-1,2", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--direction", "forward",
                 "--out", str(fwd)]) == 0
    err = capsys.readouterr().err
    assert "tail_bound=" in err
    f = read_gridfunction(str(src))
    w = f.window
    window_arg = f"{w.n1_min},{w.n1_max},{w.n2_min},{w.n2_max}"
    assert main([f"--window={window_arg}", "transform", "--input", str(fwd),
                 "--direction", "inverse", "--out", str(back)]) == 0
    g = read_gridfunction(str(back))
    diff = f.with_samples(g.samples - f.samples)
    assert lp_norm(diff, 2.0) / lp_norm(f, 2.0) < 1e-6


def test_empty_function_file(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[0,2] n2=[0,2]\n"
                    "sign,n1,n2,re,im\n")
    out = tmp_path / "o.csv"
    rc = main(["--window=0,4,0,4", "transform", "--input", str(path), "--out", str(out)])
    assert rc == 0
    g = read_gridfunction(str(out))
    assert np.all(g.samples == 0)


def test_bandwidth_cli(tmp_path, capsys):
    src = tmp_path / "f.csv"
    fwd = tmp_path / "F.csv"
    csv_out = tmp_path / "a.csv"
    assert main(["--q", "0.5", "--alpha", "0.0", "--seed", "6",
                 "gen", "--support=0,2,0,2", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--out", str(fwd)]) == 0
    capsys.readouterr()
    rc = main(["bandwidth", "--input", str(fwd),
               "--N", "20", "--out", str(csv_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "estimate=" in out and "exponent_normalization=sup||x||" in out
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "n,a_n_literal,a_n_spectral"
    assert len(lines) == 21


def test_bandwidth_usage_error(tmp_path):
    src = tmp_path / "f.csv"
    assert main(["--q", "0.5", "--seed", "6", "gen", "--support=0,2,0,2",
                 "--out", str(src)]) == 0
    rc = main(["bandwidth", "--input", str(src), "--N", "0"])
    assert rc == 1


def test_verify_plancherel_ok(capsys):
    rc = main(["--q", "0.5", "--alpha", "0.0", "--seed", "2", "--tol", "1e-6",
               "verify", "--suite", "plancherel"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[ok]" in out


@pytest.mark.parametrize("alpha", ["2.5", "4"])
def test_verify_plancherel_ok_at_larger_alpha(alpha, capsys):
    # the kernel families at q = 1/2 hold for every alpha, not only small ones
    rc = main(["--q", "0.5", "--alpha", alpha, "verify", "--suite", "plancherel"])
    out = capsys.readouterr().out
    assert rc == 0, out


def test_verify_shrunken_window_fails(capsys):
    rc = main(["--q", "0.5", "--alpha", "0.0", "--seed", "2", "--tol", "1e-6",
               "--window=-1,3,-1,3", "verify", "--suite", "plancherel"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "tail=" in out and "FAIL" in out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == 1


def test_verify_bounds_pass_at_small_q(capsys):
    # odd-degree monomial bounds cover the even extension the grid holds
    rc = main(["--q", "0.1", "verify", "--suite", "bounds"])
    assert rc == 0, capsys.readouterr().out


@pytest.mark.parametrize("suite", ["identities", "sonine", "bounds", "orthogonality", "pw-m"])
def test_verify_suites_pass_at_aligned_q(suite, capsys):
    rc = main(["--q", "0.5", "--alpha", "0.5", "--seed", "3",
               "verify", "--suite", suite])
    out = capsys.readouterr().out
    assert rc == 0, out


def test_config_round_trip(tmp_path):
    cfg = JobConfig(q=0.7, alpha=0.25, seed=13, tol=1e-5, n1_min=-2, n1_max=4,
                    n2_min=-1, n2_max=3, fmt="json", N=33)
    path = tmp_path / "job.cfg"
    _write_config(cfg, path)
    back = JobConfig.from_file(str(path))
    assert back == cfg


def test_config_cli_override(tmp_path):
    path = tmp_path / "job.cfg"
    _write_config(JobConfig(q=0.7, seed=1), path)
    src = tmp_path / "f.csv"
    rc = main(["--config", str(path), "--q", "0.5", "--seed", "8",
               "gen", "--support=0,1,0,1", "--out", str(src)])
    assert rc == 0
    f = read_gridfunction(str(src))
    assert f.params.q == 0.5


def test_bandwidth_divergence_diagnostic_exit_2(tmp_path):
    # constant spectral data cannot come from a compactly supported
    # preimage; the inverse's edge diagnostics map to exit 2
    path = tmp_path / "F.csv"
    lines = ["# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[-3,3] n2=[-3,3]",
             "sign,n1,n2,re,im"]
    for sgn in (1, -1):
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                lines.append(f"{sgn},{n1},{n2},1.0,0.0")
    path.write_text("\n".join(lines) + "\n")
    rc = main(["bandwidth", "--input", str(path), "--N", "5"])
    assert rc == 2


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("value,rc", [("1e300", 0), ("1e308", 2)])
def test_transform_of_a_huge_sample(tmp_path, capsys, direction, value, rc):
    # at (-2, -2) the d_q x1 weight 4 lifts 1e308 past the float64 range: the
    # transform overflows and says so; 1e300 transforms, with a finite tail
    path, out = tmp_path / "f.csv", tmp_path / "F.csv"
    path.write_text("# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[-2,4] n2=[-2,4]\n"
                    f"sign,n1,n2,re,im\n1,-2,-2,{value},0.0\n")
    got = main(["transform", "--direction", direction, "--input", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert "nan" not in err and "LatticeWindow" not in err
    assert got == rc
    if rc:
        assert "numerical diagnostic: the transform overflows float64" in err
        assert not out.exists()
    else:
        assert math.isfinite(float(err.split("tail_bound=")[1]))
        assert np.all(np.isfinite(read_gridfunction(str(out)).samples))


_CSV_HEADER = "# qweinstein v{v} q=0.5 alpha=0.0 parity=even n1=[0,2] n2=[0,2]\n"


def _one_cell_at(n: int) -> tuple:
    """A header-test case: the CSV window and its one point moved to n1 = n."""
    return "csv", "n1=[0,2] n2=[0,2]\n1,0,", f"n1=[{n},{n}] n2=[0,2]\n1,{n},"


def _json_with_points(points: str) -> str:
    """A JSON grid file, valid but for its points, given as JSON text."""
    return ('{"format": "qweinstein", "version": 1, "q": 0.5, "alpha": 0.0, "parity": "even", '
            f'"n1": [0, 2], "n2": [0, 2], "points": [{points}]}}')


def _write_grid_file(tmp_path, fmt, rows, version=1):
    if fmt == "csv":
        path = tmp_path / "f.csv"
        path.write_text(_CSV_HEADER.format(v=version)
                        + "".join(",".join(map(str, r)) + "\n" for r in rows))
    else:
        path = tmp_path / "f.json"
        doc = {"format": "qweinstein", "q": 0.5, "alpha": 0.0, "parity": "even",
               "n1": [0, 2], "n2": [0, 2], "points": rows}
        if version is not None:
            doc["version"] = version
        path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows,version,match", [
    ([[7, 0, 0, 1.0, 0.0]], 1, "sign"),
    ([[1, -1, 0, 1.0, 0.0]], 1, "outside window"),
    ([[1, 0, 3, 1.0, 0.0]], 1, "outside window"),
    ([[1, 0.5, 0, 1.0, 0.0]], 1, "unparsable"),
    ([[1, 0, 0, 1.0, 0.0], [1, 0, 0, 2.0, 0.0]], 1, "duplicate"),
    ([[1, 0, 0, 1.0, 0.0]], 2, "version"),
    ([[1, 0, 0, 1.0, 0.0]], None, "version"),
], ids=["sign", "n1-below", "n2-above", "non-integer", "duplicate", "version", "no-version"])
def test_reader_rejects_bad_rows(tmp_path, fmt, rows, version, match):
    path = _write_grid_file(tmp_path, fmt, rows, version)
    with pytest.raises(FileFormatError, match=match):
        read_gridfunction(path)


@pytest.mark.parametrize("argv", [
    ["gen", "--support=a,b,c,d"],
    ["gen", "--support=1,2,3"],
    ["--window=a,2,3,4", "gen", "--support=0,1,0,1"],
    ["gen", "--support=0,1000000,0,1000000"],
    ["gen", f"--support=0,{2**63},0,0"],
    [f"--window=0,{2**63},0,0", "transform", "--input", "in.csv"],
    ["--window=0,4000000000000,0,0", "transform", "--input", "in.csv"],
], ids=["support-not-integers", "support-three-fields", "window-not-integers",
        "support-10^12-cells", "support-past-int64", "window-past-int64", "window-4e12"])
def test_malformed_window_flag_exit_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--support=0,1,0,1", "--out", "in.csv"]) == 0
    rc = main(argv + ["--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bandwidth_ignores_inverse_residue(tmp_path, capsys):
    # this seed's inverse leaves residue of ~1e-10 of the peak outside the
    # support, which a support threshold of 1e-10 kept, so the radius came
    # out at 1048576 instead of the true sqrt(2) * 2^4
    src = tmp_path / "f.csv"
    fwd = tmp_path / "F.csv"
    assert main(["--seed", "87383064", "gen", "--support=-4,8,-4,8", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--out", str(fwd)]) == 0
    capsys.readouterr()
    assert main(["bandwidth", "--input", str(fwd), "--N", "20"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    radius = math.sqrt(2.0) * 2.0**4
    assert abs(float(out["oracle_radius"]) / radius - 1.0) < 1e-6
    assert abs(float(out["estimate"]) / radius - 1.0) < 1e-3


@pytest.mark.parametrize("line", ["seed=abc", "q=x", "n1_min=1.5",
                                  "series_tol=1e-3", "sum_n_max=60"])
def test_config_unparsable_value_exit_1(tmp_path, capsys, line):
    path = tmp_path / "job.cfg"
    path.write_text(f"alpha=0.5\n{line}\n")
    rc = main(["--config", str(path), "gen", "--support=0,1,0,1", "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert f"error: {path}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt,old,new", [
    ("json", '"n1": [0, 2]', '"n1": 5'),
    ("json", '"n2": [0, 2]', '"n2": [0, "2"]'),
    ("json", '"q": 0.5', '"q": "x"'),
    ("json", '"alpha": 0.0', '"alpha": null'),
    ("json", '"points": [[1, 0, 0, 1.0, 0.0]]', '"points": 5'),
    ("json", None, "5"),
    ("csv", "q=0.5", "q=x"),
    ("csv", "n1=[0,2]", "n1=5"),
    ("json", '"version": 1', '"version": true'),
    ("json", '"format": "qweinstein"', '"format": "other"'),
    ("json", '"q": 0.5', '"q": 1.5'),
    ("json", '"n1": [0, 2]', '"n1": [2, 0]'),
    ("json", '"parity": "even"', '"parity": "x"'),
    ("csv", "q=0.5", "q=1.5"),
    ("csv", "alpha=0.0", "alpha=nan"),
    ("json", '"alpha": 0.0', '"alpha": NaN'),
    ("json", '"n1": [0, 2]', '"n1": [-1, 1099511627776]'),
    ("csv", "n1=[0,2]", "n1=[-1,9223372036854775808]"),
    ("csv", "n1=[0,2]", f"n1=[{2**63},{2**63}]"),
    ("json", '"n1": [0, 2]', f'"n1": [{2**63}, {2**63}]'),
    _one_cell_at(3000),
    _one_cell_at(10**6),
    _one_cell_at(10**12),
], ids=["json-n1-int", "json-n2-str-bound", "json-q-str", "json-alpha-null", "json-points-int",
        "json-not-object", "csv-q-str", "csv-n1-int", "json-version-bool", "json-format-other",
        "json-q-range", "json-n1-reversed", "json-parity-range", "csv-q-range", "csv-alpha-nan",
        "json-alpha-nan", "json-window-2^40", "csv-window-past-2^62", "csv-window-at-2^63",
        "json-window-at-2^63", "csv-cell-at-3000", "csv-cell-at-10^6", "csv-cell-at-10^12"])
def test_reader_rejects_bad_header_types(tmp_path, capsys, fmt, old, new):
    # a header field of the wrong type, or out of range, is a format error on
    # line 1 (exit 1), not a traceback or a message that names no file
    path = _write_grid_file(tmp_path, fmt, [[1, 0, 0, 1.0, 0.0]])
    text = open(path).read()
    assert old is None or old in text
    open(path, "w").write(text.replace(old, new) if old else new)
    with pytest.raises(FileFormatError, match=":1:"):
        read_gridfunction(path)
    assert main(["transform", "--input", path, "--out", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_window_limit_admits_every_automatic_window(tmp_path):
    # the deepest floor any lattice alignment allows, at the largest q the limit covers
    from qweinstein.cli import MAX_WINDOW_CELLS
    from qweinstein.qspecial import decay_floor_exponent

    assert 2 * (1001 - decay_floor_exponent(0.99998)) ** 2 <= MAX_WINDOW_CELLS
    src, out = str(tmp_path / "f.csv"), str(tmp_path / "F.json")
    assert main(["--q", "0.9", "gen", "--support=-2,4,-2,4", "--out", src]) == 0
    assert main(["transform", "--input", src, "--out", out, "--format", "json"]) == 0
    want = forward(embed_zeros(read_gridfunction(src), 1, 1), auto_tol=1e-10).grid   # tol 1e-6
    got = read_gridfunction(out)
    assert got.window == want.window and np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("name,data,where", [
    ("f.json", json.dumps({"format": "qweinstein"}).encode("utf-16"), ":1: not UTF-8"),
    ("f.csv", _CSV_HEADER.format(v=1).encode() + b"1,0,0,1.0,0.\xff\n", ":2: not UTF-8"),
    ("f.json", b"[" * 5000, ":1: JSON nested too deeply"),
    ("f.json", _json_with_points("[" * 1000 + "]" * 1000).encode(), ":1: JSON nested too deeply"),
], ids=["json-utf16-bom", "csv-bad-byte", "json-deep", "json-deep-points"])
def test_undecodable_or_deeply_nested_file_exit_1(tmp_path, capsys, name, data, where):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(FileFormatError, match=where):
        read_gridfunction(str(path))
    assert main(["transform", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert f"error: {path}{where}" in capsys.readouterr().err


def test_config_with_a_non_utf8_byte_exit_1(tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_bytes(b"q=0.5\nalpha=0.\xe9\n")
    assert main(["--config", str(path), "gen", "--support=0,1,0,1",
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert f"error: {path}:2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--alpha", "nan", "verify", "--suite", "sonine"],
                                  ["--alpha", "inf", "verify", "--suite", "plancherel"]],
                         ids=["nan-sonine", "inf-plancherel"])
def test_non_finite_alpha_exit_1(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha must be finite") and "Warning" not in err


@pytest.mark.parametrize("tol", ["1e-320", "1e300"])
def test_auto_window_tolerance_outside_unit_interval_exit_1(tmp_path, capsys, tol):
    # transform's automatic window runs at tol * 1e-4, which underflows to 0 for the
    # first and exceeds 1 for the second
    src = str(tmp_path / "f.csv")
    assert main(["gen", "--support=0,1,0,1", "--out", src]) == 0
    assert main(["--tol", tol, "transform", "--input", src, "--out", str(tmp_path / "o.csv")]) == 1
    assert "error: the automatic window's tolerance must lie in (0, 1)" in capsys.readouterr().err


# values no flag takes: not numbers, non-finite, subnormal, huge, negative, zero,
# past int64, empty, a directory
_HOSTILE = ["nan", "inf", "-inf", "1e-320", "1e300", "-1", "0", str(2**63), "", "abc", "."]
_BAD_WINDOWS = _HOSTILE + [f"0,{2**63},0,0", "0,4000000000000,0,0", "0,1000000,0,1000000",
                           "4,0,0,0", "0,0,3,2", "0,1,2", "-600,0,0,0"]
_GEN = ["gen", "--support=0,1,0,1", "--out", "o.csv"]
_TRANSFORM = ["transform", "--input", "in.csv", "--out", "o.csv"]
_BANDWIDTH = ["bandwidth", "--input", "F.csv", "--N", "2"]
# (argv with {} for the value, the values to try, those of them that are valid there).
# Valid values stay out of scope even where they are extreme: in-domain q and alpha
# such as q = 1e-320 or alpha = 1e300, and valid but expensive ones (a large --N, q
# near 1)
_FLAG_CASES = [
    (["--config", "{}", *_GEN], _HOSTILE, ()),
    (["--q", "{}", *_GEN], _HOSTILE, ("1e-320",)),
    (["--alpha", "{}", *_GEN], _HOSTILE, ("1e-320", "1e300", "0", str(2**63))),
    (["--seed", "{}", *_GEN], _HOSTILE, ("0", str(2**63))),
    (["--tol", "{}", *_TRANSFORM], _HOSTILE, ()),
    (["--format", "{}", *_GEN], _HOSTILE, ()),
    (["--window={}", *_TRANSFORM], _BAD_WINDOWS, ()),
    (["--window={}", "verify", "--suite", "plancherel"], _BAD_WINDOWS, ()),
    (["gen", "--support={}", "--out", "o.csv"], _BAD_WINDOWS, ()),
    (["gen", "--support=0,1,0,1", "--out", "{}"], ["", ".", "no/such/dir/o.csv"], ()),
    (["transform", "--input", "{}", "--out", "o.csv"], _HOSTILE, ()),
    (["transform", "--input", "in.csv", "--out", "{}"], ["", ".", "no/such/dir/o.csv"], ()),
    ([*_TRANSFORM, "--direction", "{}"], _HOSTILE, ()),
    (["bandwidth", "--input", "{}", "--N", "2"], _HOSTILE, ()),
    (["bandwidth", "--input", "F.csv", "--N", "{}"], _HOSTILE, (str(2**63),)),
    ([*_BANDWIDTH, "--out", "{}"], ["", ".", "no/such/dir/o.csv"], ()),
    (["verify", "--suite", "{}"], _HOSTILE, ()),
]


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile")
    assert main(["gen", "--support=-1,2,-1,2", "--out", str(path / "in.csv")]) == 0
    assert main(["transform", "--input", str(path / "in.csv"), "--out", str(path / "F.csv")]) == 0
    assert main(["bandwidth", "--input", str(path / "F.csv"), "--N", "2"]) == 0
    return path


@pytest.mark.parametrize("argv", [
    [a.replace("{}", v) for a in template]
    for template, values, valid in _FLAG_CASES for v in values if v not in valid], ids=" ".join)
def test_hostile_flag_values_exit_nonzero_without_raising(hostile_dir, monkeypatch, argv):
    monkeypatch.chdir(hostile_dir)
    assert main(argv) in (1, 2, 3)


@pytest.mark.parametrize("fmt,rows,match", [
    ("csv", [[1, 0, 0, 1.0, 0.0], [1, 0, 1, "nan", 0.0]], ":3:"),
    ("csv", [[1, 0, 0, 1.0, 0.0], [1, 0, 1, 1.0, "-inf"]], ":3:"),
    ("json", [[1, 0, 0, math.nan, 0.0], [1, 0, 1, 1.0, 0.0]], "point 0"),
    ("json", [[1, 0, 0, 1.0, math.inf]], "point 0"),
], ids=["csv-nan", "csv-inf", "json-nan", "json-inf"])
def test_reader_rejects_non_finite_values(tmp_path, fmt, rows, match):
    path = _write_grid_file(tmp_path, fmt, rows)
    with pytest.raises(FileFormatError, match=match):
        read_gridfunction(path)


@pytest.mark.parametrize("rows,where", [
    ([[1, 0, 0, True, False]], "point 0"),
    ([["-1", "1", "1", 1.0, 0.0]], "point 0"),
    ([[1, 0, 0, 1.0, 0.0], [1, 0, 1, "2.5", 0.0]], "point 1"),
    ([[1, 0, 0, 1.0, 0.0], [-1, 0, "1", 1.0, 0.0]], "point 1"),
    ([[1, 0, 0, 1.0, 0.0], [1, 1, 1, 0.5, True]], "point 1"),
], ids=["bool-values", "string-fields", "string-value", "string-exponent", "bool-imag"])
def test_json_reader_rejects_strings_and_booleans(tmp_path, capsys, rows, where):
    # JSON numbers are numbers already; only the CSV reader parses strings
    path = _write_grid_file(tmp_path, "json", rows)
    with pytest.raises(FileFormatError, match=f": {where}: unparsable row"):
        read_gridfunction(path)
    assert main(["transform", "--input", path, "--out", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_json_reader_takes_integer_values(tmp_path):
    f = read_gridfunction(_write_grid_file(tmp_path, "json", [[-1, 2, 0, 3, -2]]))
    assert f.samples[1, 2, 0] == 3 - 2j


def test_config_unknown_format_exit_1(tmp_path, capsys):
    # an unknown fmt is rejected where the config is parsed, before the command runs
    path = tmp_path / "job.cfg"
    path.write_text("alpha=0.5\nfmt=xml\n")
    out = tmp_path / "f.csv"
    rc = main(["--config", str(path), "gen", "--support=0,1,0,1", "--out", str(out)])
    assert rc == 1
    assert f"error: {path}:2:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# grid-file properties
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from qweinstein import GridFunction  # noqa: E402

_PROPERTY = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([5e-324, -5e-324, 1e300, -1e300, 0.0, -0.0]))


@st.composite
def _grid_functions(draw):
    n1_min, n2_min = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    window = LatticeWindow(n1_min, n1_min + draw(st.integers(0, 3)),
                           n2_min, n2_min + draw(st.integers(0, 3)))
    samples = np.zeros(window.shape, dtype=np.complex128)
    # set part by part: re + 1j * im would turn a -0.0 part into +0.0
    samples.real, samples.imag = (draw(hnp.arrays(np.float64, window.shape, elements=_VALUES))
                                  for _ in range(2))
    samples[draw(hnp.arrays(np.bool_, window.shape))] = 0.0
    params = QParams(q=draw(st.sampled_from([0.5, 0.7])), alpha=draw(st.sampled_from([0.0, 0.5])))
    return GridFunction(params, window, "even", samples)


@_PROPERTY
@given(f=_grid_functions())
def test_round_trip_is_exact(tmp_path, f):
    for fmt in ("csv", "json"):
        path = str(tmp_path / f"f.{fmt}")
        write_gridfunction(f, path, fmt)
        g = read_gridfunction(path)
        assert (g.params, g.window, g.parity_y) == (f.params, f.window, f.parity_y)
        assert np.array_equal(g.samples, f.samples)
        stored = f.samples != 0   # zeros are not written; stored values keep every bit
        assert np.array_equal(g.samples[stored].view(np.int64), f.samples[stored].view(np.int64))


@_PROPERTY
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]),
       kind=st.sampled_from(["sign", "outside window", "duplicate"]))
def test_reader_names_the_injected_bad_row(tmp_path, data, fmt, kind):
    # the _write_grid_file window is n1, n2 in [0, 2]; its CSV rows start on line 2
    points = [[s, a, b] for s in (1, -1) for a in range(3) for b in range(3)]
    rows = [p + [1.0, -2.0] for p in data.draw(st.permutations(points))[:data.draw(st.integers(1, 8))]]
    pos = data.draw(st.integers(1 if kind == "duplicate" else 0, len(rows)))
    if kind == "sign":
        bad = [data.draw(st.sampled_from([0, 2, -2, 7])), 1, 1, 0.5, 0.0]
    elif kind == "outside window":
        n = data.draw(st.one_of(st.integers(-1000, -1), st.integers(3, 1000)))
        bad = [1, n, 1, 0.5, 0.0] if data.draw(st.booleans()) else [-1, 1, n, 0.5, 0.0]
    else:
        bad = rows[data.draw(st.integers(0, pos - 1))][:3] + [0.5, 0.0]
    rows.insert(pos, bad)
    where = f":{pos + 2}: " if fmt == "csv" else f": point {pos}: "
    with pytest.raises(FileFormatError, match=where + ".*" + kind):
        read_gridfunction(_write_grid_file(tmp_path, fmt, rows))


@pytest.mark.parametrize("fmt,where", [("csv", ":3: "), ("json", ": point 1: ")])
@pytest.mark.parametrize("later", [[1, 1, 1, 1.0], [1, 1, 1, "x", 0.0], [1, 1, 1, "nan", 0.0],
                                   [1, 5, 1, 1.0, 0.0], [1, 0, 0, 1.0, 0.0]],
                         ids=["short", "unparsable", "non-finite", "outside", "duplicate"])
def test_reader_reports_the_first_bad_row(tmp_path, fmt, where, later):
    # a bad sign on line 3 (point 1) comes before a worse-looking row on line 5
    rows = [[1, 0, 0, 1.0, 0.0], [7, 0, 1, 1.0, 0.0], [1, 1, 0, 1.0, 0.0], later]
    with pytest.raises(FileFormatError, match=where + "sign"):
        read_gridfunction(_write_grid_file(tmp_path, fmt, rows))


def _small_grid() -> GridFunction:
    samples = np.zeros((2, 2, 2), dtype=np.complex128)
    samples[0, 0, 0] = complex(0.1, -0.0)
    samples[0, 1, 1] = complex(5e-324, 1e300)
    samples[1, 0, 1] = -2.5
    return GridFunction(QParams(q=0.5, alpha=0.0), LatticeWindow(0, 1, -1, 0), "even", samples)


def test_csv_output_is_byte_exact(tmp_path):
    path = tmp_path / "f.csv"
    write_gridfunction(_small_grid(), str(path), "csv")
    assert path.read_text() == ("# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[0,1] n2=[-1,0]\n"
                                "sign,n1,n2,re,im\n"
                                "1,0,-1,0.1,-0.0\n"
                                "1,1,0,5e-324,1e+300\n"
                                "-1,0,0,-2.5,0.0\n")


def test_indented_json_still_reads(tmp_path):
    f = _small_grid()
    path = tmp_path / "f.json"
    write_gridfunction(f, str(path), "json")
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc, indent=1))
    assert np.array_equal(read_gridfunction(str(path)).samples, f.samples)


# ---------------------------------------------------------------------------
# the two JSON parse paths: orjson, and the stdlib parser for what orjson rejects
# ---------------------------------------------------------------------------

def _outcome(path: str):
    """What reading the file gives: the grid, bit for bit, or the error's type and message."""
    try:
        g = read_gridfunction(path)
    except Exception as exc:
        return type(exc), str(exc)
    return g.params, g.window, g.parity_y, g.samples.tobytes()


def _reject_all(data):
    import orjson

    raise orjson.JSONDecodeError("forced", "", 0)


_EDITS = st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                            st.floats(0, 1, exclude_max=True), st.binary(min_size=1, max_size=1)),
                  max_size=3)


def _edited(data: bytes, edits) -> bytes:
    """data with the _EDITS byte edits applied in order."""
    data = bytearray(data)
    for op, at, byte in edits:
        i = int(at * len(data))
        if op == "delete":
            del data[i]
        else:
            data[i:i + (op == "replace")] = byte
    return bytes(data)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(f=_grid_functions(), spaced=st.booleans(), edits=_EDITS)
def test_json_parse_paths_agree(tmp_path, monkeypatch, f, spaced, edits):
    # a valid file, written the current or the older spaced way, with up to
    # three byte edits: both parse paths read the same grid or raise the same error
    import orjson

    path = tmp_path / "f.json"
    write_gridfunction(f, str(path), "json")
    data = path.read_bytes()
    if spaced:
        data = json.dumps(json.loads(data)).encode()
    path.write_bytes(_edited(data, edits))
    fast = _outcome(str(path))
    with monkeypatch.context() as m:
        m.setattr(orjson, "loads", _reject_all)
        assert _outcome(str(path)) == fast


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(f=_grid_functions(), kind=st.sampled_from(["csv", "json", "config"]), edits=_EDITS)
def test_mutated_files_never_escape_main(tmp_path, f, kind, edits):
    # a valid grid or config file with up to three byte edits: main exits with
    # a documented code and raises nothing.  The transform runs on a fixed
    # spectral window, so its cost stays that of reading the file
    path = tmp_path / f"in.{'cfg' if kind == 'config' else kind}"
    if kind == "config":
        _write_config(JobConfig(q=f.params.q, alpha=f.params.alpha, seed=3, N=5), path)
    else:
        write_gridfunction(f, str(path), kind)
    path.write_bytes(_edited(path.read_bytes(), edits))
    out = str(tmp_path / "out.csv")
    if kind == "config":
        argv = ["--config", str(path), "gen", "--support=0,1,0,1", "--out", out]
    else:
        argv = ["transform", "--input", str(path), "--out", out, "--window=-2,2,-2,2"]
    assert main(argv) in (0, 1, 2, 3)


_DOC = ('{"format": "qweinstein", "version": 1, "q": 0.5, "alpha": 0.0, "parity": "even", '
        '"n1": [0, 2], "n2": [0, 2], "points": [[1, 0, 0, 1.0, 0.0]]}')


@pytest.mark.parametrize("old,new,message", [
    ("1.0, 0.0", "NaN, 0.0", ": point 0: non-finite value: [1, 0, 0, nan, 0.0]"),
    ("1.0, 0.0", "1.0, -Infinity", ": point 0: non-finite value: [1, 0, 0, 1.0, -inf]"),
    ("1.0, 0.0", "1e400, 0.0", ": point 0: non-finite value: [1, 0, 0, inf, 0.0]"),
    ('"even"', '"\\ud800"', ":1: parity_y must be 'even' or 'odd', got \ud800"),
    ('{"format"', '﻿{"format"', ":1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("[1, 0, 0,", "[1, 18446744073709551616, 0,",
     ": point 0: unparsable row: [1, 18446744073709551616, 0, 1.0, 0.0]"),
], ids=["nan", "infinity", "1e400", "lone-surrogate", "bom", "int-past-64-bits"])
def test_json_reader_keeps_messages_for_stdlib_only_inputs(tmp_path, old, new, message):
    # orjson rejects these documents, or reads an integer past 64 bits as a
    # float; the stdlib parser reads them as written, and the reader then
    # rejects them as it always has
    path = tmp_path / "f.json"
    path.write_text(_DOC.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(FileFormatError) as info:
        read_gridfunction(str(path))
    assert str(info.value) == str(path) + message


def test_json_written_the_older_way_reads_back_exactly(tmp_path):
    # json.dumps spacing and notation: 1e-05, 1e+300, 5e-324, -0.0
    rows = [[1, 0, 0, 1e-05, -0.0], [1, 1, 2, 1e+300, 5e-324], [-1, 2, 1, -0.1, 123456789.5]]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"format": "qweinstein", "version": 1, "q": 0.5, "alpha": 0.0,
                                "parity": "even", "n1": [0, 2], "n2": [0, 2], "points": rows}))
    got = read_gridfunction(str(path)).samples
    for s, n1, n2, re, im in rows:
        v = got[(1 - s) // 2, n1, n2]
        assert np.array([v.real, v.imag]).tobytes() == np.array([re, im]).tobytes()


def test_json_writer_output_loads_with_stdlib_json(tmp_path):
    f = _small_grid()
    path = tmp_path / "f.json"
    write_gridfunction(f, str(path), "json")
    text = path.read_text()
    assert ", " not in text and ": " not in text
    expected = {"format": "qweinstein", "version": 1, "q": 0.5, "alpha": 0.0, "parity": "even",
                "n1": [0, 1], "n2": [-1, 0],
                "points": [[1, 0, -1, 0.1, -0.0], [1, 1, 0, 5e-324, 1e300], [-1, 0, 0, -2.5, 0.0]]}
    # compared through repr, so -0.0 and every float's bits count
    assert json.dumps(json.loads(text)) == json.dumps(expected)
    # numpy scalars as params write the same file
    g = GridFunction(QParams(q=np.float64(0.5), alpha=np.float64(0.0)), f.window, "even", f.samples)
    write_gridfunction(g, str(path), "json")
    assert path.read_text() == text


def test_runs_without_json_files_do_not_import_orjson(tmp_path):
    # orjson is imported where a JSON grid file is written or read, and nowhere else
    import os
    import subprocess
    import sys
    import textwrap

    import qweinstein

    f, F, J = (str(tmp_path / name) for name in ("f.csv", "F.csv", "F.json"))
    code = textwrap.dedent(f"""
        import sys
        from qweinstein import LatticeWindow, QParams, forward, inverse
        from qweinstein.cli import main, random_even_bump
        f = random_even_bump(QParams(q=0.5, alpha=0.0), LatticeWindow(0, 2, 0, 2), 1, pad=1)
        inverse(forward(f).grid, x_window=f.window)
        assert main(["verify", "--suite", "sonine"]) == 0
        assert main(["gen", "--support=0,2,0,2", "--out", {f!r}]) == 0
        assert main(["transform", "--input", {f!r}, "--out", {F!r}]) == 0
        assert "orjson" not in sys.modules
        assert main(["--format", "json", "transform", "--input", {f!r}, "--out", {J!r}]) == 0
        assert "orjson" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(qweinstein.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("row", [("nan-error", math.nan, 1.0), ("nan-tol", 0.5, math.nan)])
def test_verify_nan_row_fails_with_exit_3(monkeypatch, capsys, row):
    from qweinstein import cli

    monkeypatch.setitem(cli._SUITES, "sonine", lambda cfg: [row])
    assert main(["verify", "--suite", "sonine"]) == 3
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("argv,config", [
    (["--seed", "-1", "gen", "--support=0,1,0,1"], None),
    (["gen", "--support=0,1,0,1"], "seed=-5\n"),
    (["--tol", "0", "gen", "--support=0,1,0,1"], None),
    (["--tol", "-1", "verify", "--suite", "sonine"], None),
    (["--tol", "nan", "verify", "--suite", "sonine"], None),
    (["--tol", "inf", "verify", "--suite", "sonine"], None),
    (["gen", "--support=0,1,0,1"], "tol=nan\n"),
], ids=["seed-flag", "seed-config", "tol-zero", "tol-negative", "tol-nan", "tol-inf",
        "tol-config"])
def test_bad_seed_or_tol_exit_1(tmp_path, capsys, argv, config):
    if argv[-1].startswith("--support"):
        argv = argv + ["--out", str(tmp_path / "f.csv")]
    if config is not None:
        (tmp_path / "job.cfg").write_text(config)
        argv = ["--config", str(tmp_path / "job.cfg")] + argv
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("argv", [
    ["transform", "--window=0,0,0,0"],
    ["transform", "--window=-5,9,0,0"],
    ["transform", "--direction", "inverse", "--window=0,0,0,0"],
], ids=["transform-1x1", "transform-1-shell-n2", "inverse-1x1"])
def test_one_shell_window_transforms(tmp_path, argv):
    src = tmp_path / "f.csv"
    assert main(["gen", "--support=-2,4,-2,4", "--out", str(src)]) == 0
    out = tmp_path / "F.csv"
    assert main(argv + ["--input", str(src), "--out", str(out)]) == 0
    F = read_gridfunction(str(out))
    w = LatticeWindow(*[int(v) for v in argv[-1].split("=")[1].split(",")])
    assert (F.window.shape, np.all(np.isfinite(F.samples))) == (w.shape, True)


def test_one_shell_window_bandwidth_and_verify(tmp_path, capsys):
    src, F = tmp_path / "f.csv", tmp_path / "F.json"
    assert main(["gen", "--support=0,0,0,0", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--out", str(F), "--format", "json"]) == 0
    assert main(["bandwidth", "--input", str(F)]) == 0
    assert main(["verify", "--suite", "plancherel", "--window=0,0,0,0"]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_bandwidth_reads_N_from_config_file(tmp_path):
    src, fwd, cfg = (tmp_path / n for n in ("f.csv", "F.csv", "job.cfg"))
    assert main(["--seed", "6", "gen", "--support=0,2,0,2", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--out", str(fwd)]) == 0
    cfg.write_text("N=3\n")
    for flags, rows in (([], 3), (["--N", "5"], 5)):   # a flag overrides the file
        out = tmp_path / f"a{rows}.csv"
        assert main(["--config", str(cfg), "bandwidth", "--input", str(fwd),
                     "--out", str(out)] + flags) == 0
        assert len(out.read_text().splitlines()) == rows + 1


def test_bandwidth_N_below_one_in_config_exit_1(tmp_path, capsys):
    src = tmp_path / "f.csv"
    assert main(["--seed", "6", "gen", "--support=0,2,0,2", "--out", str(src)]) == 0
    (tmp_path / "job.cfg").write_text("N=0\n")
    capsys.readouterr()
    assert main(["--config", str(tmp_path / "job.cfg"), "bandwidth", "--input", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


def _bandwidth_run(tmp_path, capsys, flags, q="0.5"):
    """gen (seed 1, support -2,4,-2,4, at q) -> forward -> bandwidth FLAGS: the
    exit code and bandwidth's captured output."""
    src, fwd = tmp_path / "f.csv", tmp_path / "F.csv"
    assert main(["--q", q, "--seed", "1", "gen", "--support=-2,4,-2,4", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--out", str(fwd)]) == 0
    capsys.readouterr()
    return main(["bandwidth", "--input", str(fwd)] + flags), capsys.readouterr()


def _fields(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.splitlines())


@pytest.mark.parametrize("window", ["-1,3,-1,3", "-2,3,-2,4", "0,0,0,0", "-3,5,-3,5",
                                    "config"])
def test_bandwidth_rejects_window_exit_1(tmp_path, capsys, window):
    # bandwidth reconstructs the preimage on its automatic window, so a
    # window would only be a silent no-op or a cut support (the first three
    # cut the support -2,4,-2,4, the fourth holds it)
    flags = [f"--window={window}"]
    if window == "config":
        cfg = tmp_path / "window.cfg"
        cfg.write_text("n1_min=-2\nn1_max=4\nn2_min=-2\nn2_max=4\n")
        flags = ["--config", str(cfg)]
    rc, captured = _bandwidth_run(tmp_path, capsys, flags)
    assert rc == 1
    assert "error: bandwidth takes no --window" in captured.err
    assert "estimate=" not in captured.out


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen", "identities", "orthogonality", "sonine", "bounds",
                                     "pw-m"])
def test_window_that_the_command_ignores_exit_1(tmp_path, capsys, command, source):
    # these commands and suites fix their own windows, so a window would be
    # a silent no-op: gen would write the same file, the suite the same rows
    out = tmp_path / "f.csv"
    if command == "gen":
        argv, what = ["gen", "--support=0,1,0,1", "--out", str(out)], "gen"
    else:
        argv, what = ["verify", "--suite", command], f"verify --suite {command}"
    flags = ["--window=0,0,0,0"]
    if source == "config":
        cfg = tmp_path / "window.cfg"
        cfg.write_text("n1_min=0\nn1_max=0\nn2_min=0\nn2_max=0\n")
        flags = ["--config", str(cfg)]
    assert main(flags + argv) == 1
    captured = capsys.readouterr()
    assert f"error: {what} takes no --window" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_verify_plancherel_reads_window_from_flag_and_config(tmp_path, capsys):
    # the spectral window of test_verify_shrunken_window_fails, from either source
    base = ["--q", "0.5", "--seed", "2", "--tol", "1e-6"]
    cfg = tmp_path / "window.cfg"
    cfg.write_text("n1_min=-1\nn1_max=3\nn2_min=-1\nn2_max=3\n")
    rows = []
    for flags in ([], ["--window=-1,3,-1,3"], ["--config", str(cfg)]):
        rc = main(base + flags + ["verify", "--suite", "plancherel"])
        rows.append((rc, capsys.readouterr().out))
    assert rows[0][0] == 0 and rows[1][0] == rows[2][0] == 3
    assert rows[1][1] == rows[2][1] != rows[0][1]


@pytest.mark.parametrize("window", ["-2,4,-2,4", "-3,5,-3,5"], ids=["support", "padded"])
def test_bandwidth_window_holding_the_support_matches_no_window(tmp_path, capsys, window):
    # a preimage read on a window that holds the support, thresholded as
    # bandwidth thresholds its own, gives the automatic window's numbers bit
    # for bit: the reason bandwidth needs no window
    rc, plain = _bandwidth_run(tmp_path, capsys, [])
    assert rc == 0
    F = read_gridfunction(str(tmp_path / "F.csv"))
    raw = inverse(F, x_window=LatticeWindow(*[int(v) for v in window.split(",")])).grid
    absf = np.abs(raw.samples)
    f_hat = raw.with_samples(np.where(absf > 1e-8 * float(np.max(absf)), raw.samples, 0.0))
    windowed, auto = bandwidth_estimate(F, 20, f_hat=f_hat), bandwidth_estimate(F, 20)
    assert (windowed.a_seq, windowed.a_seq_literal) == (auto.a_seq, auto.a_seq_literal)
    assert (windowed.estimate, windowed.oracle_radius) == (auto.estimate, auto.oracle_radius)
    assert _fields(plain.out)["estimate"] == f"{windowed.estimate:.8g}"
    assert abs(float(_fields(plain.out)["estimate"]) / (4.0 * math.sqrt(2.0)) - 1.0) < 1e-3


@pytest.mark.parametrize("q", [0.7, aligned_q(2)], ids=["generic", "aligned-2"])
def test_bandwidth_needs_exact_alignment_exit_2(tmp_path, capsys, q):
    # off exact alignment the inverse leaves residue above the threshold
    # (about 13,400 samples at 0.7, 4,300 at aligned_q(2), against 98 at
    # 1/2), and the radius read off it was 1.34e7 and 4.39e5 for a true
    # 2.886 and 3.702; without a preimage, bandwidth now stops instead
    rc, captured = _bandwidth_run(tmp_path, capsys, ["--N", "20"], q=repr(q))
    assert rc == 2
    assert "numerical diagnostic:" in captured.err and "lattice-alignment" in captured.err
    assert "estimate=" not in captured.out
    p = QParams(q=q, alpha=0.0)
    f = random_even_bump(p, LatticeWindow(-2, 4, -2, 4), seed=1, pad=1)
    F = forward(f).grid
    m = 3
    pw = PWmParams(m=m, a=support_radius(f) / q ** (4 * m), N=2 * m + 2)
    with pytest.raises(DivergenceError, match="lattice-alignment"):
        bandwidth_estimate(F, 5)
    with pytest.raises(DivergenceError, match="lattice-alignment"):
        pw_m_sup(F, pw)
    assert bandwidth_estimate(F, 5, f_hat=f).n_used == 5
    assert len(pw_m_sup(F, pw, f_hat=f)[1]) == pw.N - m + 1


def test_bandwidth_prints_core_last_n(tmp_path, capsys):
    rc, captured = _bandwidth_run(tmp_path, capsys, ["--N", "20"])
    assert rc == 0
    assert _fields(captured.out)["core_last_n"] == "20"   # at q = 1/2 the core never empties


def test_readme_cli_flow_bandwidth_is_frozen(tmp_path):
    # gen -> forward -> bandwidth as in the README, bit for bit against the
    # frozen outputs, so a change that moves any digit of this flow shows
    src, fwd, rep = tmp_path / "f.csv", tmp_path / "F.csv", tmp_path / "a.json"
    assert main(["--seed", "7", "gen", "--support=-2,4,-2,4", "--out", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--direction", "forward",
                 "--out", str(fwd)]) == 0
    assert main(["bandwidth", "--input", str(fwd), "--N", "50", "--format", "json",
                 "--out", str(rep)]) == 0
    got = json.loads(rep.read_text())
    frozen = oracles.README_FLOW_BANDWIDTH
    for key in ("a_n_literal", "a_n_spectral", "estimate"):
        assert np.array_equal(np.array(got[key]).view(np.int64),
                              np.array(frozen[key]).view(np.int64)), key


@pytest.mark.parametrize("fmt,name", [("json", "F.csv"), ("csv", "F.json")])
def test_format_that_disagrees_with_the_out_suffix_exit_1(tmp_path, capsys, fmt, name):
    # the reader picks its parser by the .json suffix, so a file it could not
    # read back is refused before it is opened
    src, out = tmp_path / "f.csv", tmp_path / name
    assert main(["gen", "--support=0,1,0,1", "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["--format", fmt, "transform", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {out}: format '{fmt}' disagrees with the file name; names ending "
                   "in .json are read as JSON, all others as CSV\n")
    assert not out.exists()
    assert main(["--format", fmt, "gen", "--support=0,1,0,1", "--out", str(out)]) == 1
    assert not out.exists()

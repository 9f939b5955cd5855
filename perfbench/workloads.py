"""The benchmark's workloads: inputs, one operation, and its correctness check.

Every workload drives the package only through its public functions and
``qweinstein.cli.main(argv)``.  An operation's inputs come from the
workload seed and the operation's index alone, so a seed always yields the
same operations.  ``run`` is the timed part; ``check`` compares its outputs
with the tolerances in ``TOLS`` and returns the relative errors it
measured.  Every workload checks Plancherel and inversion at q = 1/2;
``CHECK`` names its own further checks.

Run as a script, this module performs the first operation of a workload
in a fresh interpreter (cold kernel-family cache) and prints the
``time.monotonic()`` reading at which that operation finished, so the
caller can time interpreter start, import and first operation together:

    PYTHONPATH=src python3 perfbench/workloads.py cli_pipeline 1 WORKDIR
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import qweinstein as qw
from qweinstein import cli
from qweinstein.qcore import aligned_q


@dataclass
class Outcome:
    """Result of checking one operation.

    ``errors`` maps a check name (a key of the workload's ``TOLS``) to the
    relative error it measured; a failed operation carries the reason in
    ``problem``.
    """

    errors: dict
    problem: str = ""

    @property
    def ok(self) -> bool:
        return not self.problem


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation ``index``: a pure function of workload, seed and index."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(1, 2**31 - 1)


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output captured and stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _within(errors: dict, tols: dict) -> str:
    bad = [f"{k}={errors[k]:.3e}>{tol:.0e}" for k, tol in tols.items()
           if not errors[k] <= tol]
    return ", ".join(bad)


# ---------------------------------------------------------------------------
# cli_pipeline: gen -> forward (JSON) -> inverse (CSV) -> bandwidth
# ---------------------------------------------------------------------------

class CliPipeline:
    """The README's CLI flow at q = 1/2, on the support of its example."""

    name = "cli_pipeline"
    SUPPORT = "-2,4,-2,4"
    INVERSE_WINDOW = "-3,5,-3,5"         # the support padded by one
    N = 50
    TOLS = {"plancherel": 1e-6, "inversion": 1e-6, "route": 1e-6, "radius": 0.02}
    CHECK = ("route", "radius")          # reported as check_digits

    def inputs(self, seed: int, index: int) -> dict:
        return {"seed": op_seed(self.name, seed, index)}

    def run(self, inp: dict, workdir: Path) -> list[int]:
        f, F, g, a = (str(workdir / n) for n in ("f.csv", "F.json", "g.csv", "a.json"))
        argvs = [
            ["--seed", str(inp["seed"]), "gen", f"--support={self.SUPPORT}", "--out", f],
            ["--format", "json", "transform", "--input", f, "--direction", "forward",
             "--out", F],
            [f"--window={self.INVERSE_WINDOW}", "transform", "--input", F,
             "--direction", "inverse", "--out", g],
            ["--format", "json", "bandwidth", "--input", F, "--N", str(self.N), "--out", a],
        ]
        return [_quiet_main(argv)[0] for argv in argvs]

    def check(self, inp: dict, codes: list[int], workdir: Path) -> Outcome:
        if codes != [0, 0, 0, 0]:
            return Outcome({}, f"exit codes {codes}, expected all 0")
        f = cli.read_gridfunction(str(workdir / "f.csv"))
        F = cli.read_gridfunction(str(workdir / "F.json"))
        g = cli.read_gridfunction(str(workdir / "g.csv"))
        rep = json.loads((workdir / "a.json").read_text())
        norm_f = qw.lp_norm(f, 2.0)
        f_pad = qw.embed_zeros(f, 1, 1)
        if g.window.shape != f_pad.window.shape:
            return Outcome({}, f"inverse window {g.window} does not match {f_pad.window}")
        routes = [abs(lit / spec - 1.0)
                  for lit, spec in zip(rep["a_n_literal"], rep["a_n_spectral"])]
        if len(routes) != self.N:
            return Outcome({}, f"bandwidth reported {len(routes)} iterates, expected {self.N}")
        errors = {
            "plancherel": abs(qw.lp_norm(F, 2.0) / norm_f - 1.0),
            "inversion": qw.lp_norm(f_pad.with_samples(g.samples - f_pad.samples), 2.0) / norm_f,
            "route": max(routes),
            "radius": abs(rep["estimate"] / qw.support_radius(f) - 1.0),
        }
        return Outcome(errors, _within(errors, self.TOLS))


# ---------------------------------------------------------------------------
# transform_large: forward (automatic window) + inverse on a 61 x 61 support
# ---------------------------------------------------------------------------

class TransformLarge:
    """Library-level forward and inverse on a large support, q = 1/2 and aligned_q(2)."""

    name = "transform_large"
    SUPPORT = qw.LatticeWindow(-20, 40, -20, 40)
    QS = {"": 0.5, "_aligned": aligned_q(2)}
    TOLS = {"plancherel": 1e-6, "inversion": 1e-6,
            "plancherel_aligned": 1e-2, "inversion_aligned": 1e-2}
    CHECK = ("plancherel_aligned", "inversion_aligned")

    def inputs(self, seed: int, index: int) -> dict:
        s = op_seed(self.name, seed, index)
        return {tag: cli.random_even_bump(qw.QParams(q=q, alpha=0.0), self.SUPPORT, s, pad=1)
                for tag, q in self.QS.items()}

    def run(self, inp: dict, workdir: Path) -> dict:
        out = {}
        for tag, f in inp.items():
            F = qw.forward(f)
            out[tag] = (F.grid, qw.inverse(F.grid, x_window=f.window).grid)
        return out

    def check(self, inp: dict, out: dict, workdir: Path) -> Outcome:
        errors = {}
        for tag, f in inp.items():
            F, back = out[tag]
            norm_f = qw.lp_norm(f, 2.0)
            errors["plancherel" + tag] = abs(qw.lp_norm(F, 2.0) / norm_f - 1.0)
            errors["inversion" + tag] = (
                qw.lp_norm(f.with_samples(back.samples - f.samples), 2.0) / norm_f)
        return Outcome(errors, _within(errors, self.TOLS))


# ---------------------------------------------------------------------------
# verify_sweep: all six verify suites at three (q, alpha) pairs
# ---------------------------------------------------------------------------

_ROW = re.compile(r"^(?P<name>.+): max_rel_err=(?P<err>\S+) tol=\S+ \[(ok|FAIL)\]$")


class VerifySweep:
    """Theorem-level ``verify`` suites through the CLI, with documented exit codes."""

    name = "verify_sweep"
    TOLS = {"plancherel": 1e-6, "inversion": 1e-6, "identity": 1e-6}
    CHECK = ("identity",)
    SUITES = ("plancherel", "identities", "orthogonality", "sonine", "bounds", "pw-m")
    # (q, alpha) -> suites documented to fail with exit code 3 there: the
    # isometry criteria are unattainable off q = 1/2 (README, "Lattice alignment")
    PARAMS = {
        (0.5, 0.5): (),
        (aligned_q(2), 0.0): ("plancherel",),
        (0.7, 0.5): ("plancherel", "orthogonality"),
    }

    def inputs(self, seed: int, index: int) -> dict:
        return {"seed": op_seed(self.name, seed, index)}

    def run(self, inp: dict, workdir: Path) -> dict:
        return {(q, a, suite): _quiet_main(["--q", repr(q), "--alpha", repr(a),
                                            "--seed", str(inp["seed"]),
                                            "verify", "--suite", suite])
                for q, a in self.PARAMS for suite in self.SUITES}

    def check(self, inp: dict, out: dict, workdir: Path) -> Outcome:
        for (q, a, suite), (code, _) in out.items():
            expected = 3 if suite in self.PARAMS[(q, a)] else 0
            if code != expected:
                return Outcome({}, f"verify {suite} at q={q}, alpha={a}: "
                                   f"exit {code}, expected {expected}")
        rows = {}
        for suite in ("plancherel", "identities"):
            for line in out[(0.5, 0.5, suite)][1].splitlines():
                m = _ROW.match(line)
                if m:
                    rows[m["name"]] = float(m["err"])
        groups = {
            "plancherel": [v for k, v in rows.items() if k.startswith("plancherel[")],
            "inversion": [v for k, v in rows.items() if k.startswith("inversion[")],
            "identity": [v for k, v in rows.items() if "[" not in k],
        }
        if sorted(map(len, groups.values())) != [4, 4, 4]:
            return Outcome({}, f"unexpected verify rows at q=0.5: {sorted(rows)}")
        errors = {k: max(v) for k, v in groups.items()}
        return Outcome(errors, _within(errors, self.TOLS))


WORKLOADS = {w.name: w for w in (CliPipeline(), TransformLarge(), VerifySweep())}


def cold_first_op(name: str, seed: int, workdir: Path) -> int:
    """Run and check operation 0; print when the operation finished."""
    w = WORKLOADS[name]
    inp = w.inputs(seed, 0)
    out = w.run(inp, workdir)
    print(time.monotonic(), flush=True)
    outcome = w.check(inp, out, workdir)
    if not outcome.ok:
        print(f"first operation failed its check: {outcome.problem}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(cold_first_op(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))

"""In-process A/B of two source trees of the package over the benchmark's workloads.

    python3 tools/ab.py OLD NEW [--workload NAME] [--pairs N] [--seed S]   # from the repo root
    python3 tools/ab.py HEAD src --workload transform_large --pairs 300

OLD and NEW are each a git revision, whose ``src/`` is extracted with ``git
archive`` into a temporary tree as ``refdump.py check`` does, or the path of
a ``src`` directory (``src`` is the working tree, uncommitted edits included).
Each side is imported under its own module names (``ab_old``, ``ab_new``) and
gets its own instance of the working tree's ``perfbench/workloads.py``, bound
to that side's package.  BLAS runs on one thread, set before numpy is
imported, as in ``perfbench/run.py``.

Both sides first run and check one warm-up operation.  Then each pair runs
operation i once per side, in random order, on inputs built by each side from
the same workload seed and index; only ``run`` is timed, and each result is
checked with the workload's ``check``.  Per workload the tool prints the pairs
run, the median of the new/old time ratios, their interquartile range, a
bootstrap 95% interval of that median and the number of pairs NEW won.  It
exits 1 if any operation raised or failed its check.  Without ``--workload``
every workload runs, each for ``--pairs`` pairs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BOOTSTRAP = 2000        # resamples for the interval of the median ratio


def extract(spec: str, tmp: Path) -> Path:
    """The src directory of spec: a src path as given, or a git revision's src/ under tmp."""
    if (Path(spec) / "qweinstein" / "__init__.py").is_file():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec, "src"],
                             stdout=subprocess.PIPE)
    if archive.returncode:
        raise SystemExit(2)     # git has said why
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
    return tmp / "src"


def load_side(tag: str, src: Path):
    """The workloads module of perfbench/workloads.py, importing the package at src as ab_<tag>."""
    name = f"ab_{tag}"
    spec = importlib.util.spec_from_file_location(
        name, src / "qweinstein" / "__init__.py",
        submodule_search_locations=[str(src / "qweinstein")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    aliases = {"qweinstein": package}
    for path in sorted((src / "qweinstein").glob("*.py")):
        if path.stem != "__init__":
            aliases[f"qweinstein.{path.stem}"] = importlib.import_module(f"{name}.{path.stem}")
    # workloads.py imports qweinstein by name: point that name at this side while it loads
    previous = {alias: sys.modules.get(alias) for alias in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        for alias, module in previous.items():
            if module is None:
                del sys.modules[alias]
            else:
                sys.modules[alias] = module
    return workloads


def run_op(w, seed: int, index: int, workdir: Path) -> tuple[float, str]:
    """Seconds that w.run takes on operation index, and why it failed ('' if it passed)."""
    inp = w.inputs(seed, index)
    start = time.perf_counter()
    try:
        out = w.run(inp, workdir)
    except Exception as exc:  # a failed operation is reported, not fatal
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, w.check(inp, out, workdir).problem
    except Exception as exc:
        return elapsed, f"check raised {exc!r}"


def compare(name: str, sides: dict, pairs: int, seed: int, workdirs: dict) -> int:
    """Run and report one workload; the number of failed operations."""
    rng = random.Random(f"ab:{name}:{seed}")
    failed = 0
    ratios = []
    for index in range(pairs + 1):      # operation 0 warms both sides up
        times = {}
        for tag in rng.sample(list(sides), 2):
            times[tag], problem = run_op(sides[tag].WORKLOADS[name], seed, index,
                                         workdirs[tag])
            if problem:
                failed += 1
                print(f"{name} operation {index} on {tag}: {problem}", file=sys.stderr)
        if index:
            ratios.append(times["new"] / times["old"])
    quartiles = statistics.quantiles(ratios, n=4)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    low, high = medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]
    print(f"{name}: {pairs} pairs, new/old median {statistics.median(ratios):.4f}, "
          f"IQR {quartiles[0]:.3f}-{quartiles[2]:.3f}, 95% CI {low:.4f}-{high:.4f}, "
          f"new faster in {sum(r < 1.0 for r in ratios)}/{pairs}, {failed} failed", flush=True)
    return failed


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="git revision or src directory")
    ap.add_argument("new", help="git revision or src directory")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default every workload)")
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    with tempfile.TemporaryDirectory() as tmp:
        sides, workdirs = {}, {}
        for tag, spec in (("old", args.old), ("new", args.new)):
            (Path(tmp) / tag / "work").mkdir(parents=True)
            sides[tag] = load_side(tag, extract(spec, Path(tmp) / tag))
            workdirs[tag] = Path(tmp) / tag / "work"
        names = args.workload or list(sides["new"].WORKLOADS)
        unknown = [n for n in names if n not in sides["new"].WORKLOADS]
        if unknown:
            ap.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(sides['new'].WORKLOADS)}")
        failed = sum(compare(n, sides, args.pairs, args.seed, workdirs) for n in names)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

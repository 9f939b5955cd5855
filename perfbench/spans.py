"""Per-layer tracing of the package from outside it.

``Tracer`` wraps public functions of ``qweinstein`` wherever the package
binds their names (``paleywiener`` imports ``forward``, the package root
re-exports nearly everything), so a call through any binding opens a span.
A span records its function, start, end, parent span and operation id;
spans stay in memory until ``write`` is called once at the end of a run.
Self time is a span's duration minus the durations of its wrapped
children; private helpers (the contraction, the family cache) are not
wrapped, so their time counts towards the public function that called them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> (module, public functions whose spans belong to the layer)
GROUPS = {
    "qcore": ("qcore", ("qshifted", "qgamma", "qgamma_base", "lattice_alignment")),
    "qspecial.family": ("qspecial", ("bessel_j_exponent_family", "qtrig_exponent_families")),
    "qspecial.series": ("qspecial", ("bessel_j", "qexp", "sonine_weight")),
    "qops.stencil": ("qops", ("dq_partial", "bessel_op", "weinstein_op")),
    "qintegrate": ("qintegrate", ("integrate_mu", "lp_norm", "mu_weights", "log_mu_weights",
                                  "log_l2_norm_sq", "neumaier_sum", "jackson_0_to_a",
                                  "jackson_signed_line")),
    "transform.forward": ("transform", ("forward", "inverse")),
    "transform.auto_window": ("transform", ("auto_lambda_window",)),
    "transform.identity_suite": ("transform", ("identity_suite",)),
    "paleywiener.bandwidth": ("paleywiener", ("bandwidth_estimate",)),
    "paleywiener.checks": ("paleywiener", ("monomial_derivative_bound_check",
                                           "radial_power_bound_check",
                                           "weinstein_sup_bound_check",
                                           "sonine_identity_check", "pw_m_sup")),
    "cli.io": ("cli", ("read_gridfunction", "write_gridfunction")),
    "cli.main": ("cli", ("main",)),
}


def _input_cells(args, kwargs, result):
    return args[0].samples.size


def _contraction_cells(args, kwargs, result):
    return args[0].samples.size * result.grid.samples.size


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else args[0])
    return os.path.getsize(path)


# function -> (counter, its increment from the call's arguments and result)
COUNTERS = {
    "qops.dq_partial": ("qops.stencil_cells", _input_cells),
    "qops.bessel_op": ("qops.stencil_cells", _input_cells),
    "qops.weinstein_op": ("qops.stencil_cells", _input_cells),
    "transform.forward": ("transform.contraction_cells", _contraction_cells),
    "cli.read_gridfunction": ("cli.io_bytes", _file_bytes),
    "cli.write_gridfunction": ("cli.io_bytes", _file_bytes),
}


class Tracer:
    """Spans and counters for the public functions listed in ``GROUPS``."""

    FIELDS = ("id", "function", "start_s", "end_s", "parent", "op")

    def __init__(self):
        self.names: list[str] = []       # span name per function id
        self.group_of: list[str] = []    # layer per function id
        self.spans = array("d")          # FIELDS per span, flat, in order of span end
        self.counts: dict = defaultdict(float)   # (op, counter) -> total
        self.op = 0
        self._stack: list[int] = []      # ids of the open spans
        self._next = 0
        self._bindings: list[tuple] = []  # (module or class, attribute, original, wrapper)
        self._bind()

    # -- wrapping ----------------------------------------------------------
    def _bind(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "qweinstein" or name.startswith("qweinstein.")}
        for group, (mod_name, funcs) in GROUPS.items():
            home = pkg["qweinstein." + mod_name]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self._wrap(orig, f"{mod_name}.{func}", group)
                for mod in pkg.values():
                    for attr, val in vars(mod).items():
                        if val is orig:
                            self._bindings.append((mod, attr, orig, wrapper))
        iterates = pkg["qweinstein.paleywiener"].TransformSideIterates
        orig_run = iterates.run
        tracer = self

        @functools.wraps(orig_run)
        def run(self_, *args, **kwargs):
            for state in orig_run(self_, *args, **kwargs):
                tracer.counts[(tracer.op, "paleywiener.iterates")] += 1
                yield state

        self._bindings.append((iterates, "run", orig_run, run))

    def _wrap(self, fn, name: str, group: str):
        fid = len(self.names)
        self.names.append(name)
        self.group_of.append(group)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, fid, start, end, parent, self.op))
            if counter is not None:
                key, increment = counter
                self.counts[(self.op, key)] += increment(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------
    def _rows(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(self.FIELDS))

    def layer_metrics(self, ops: set, cold_op: int) -> dict:
        """(value, unit) of each layer metric, averaged over the operations in ``ops``.

        ``qspecial.family_cold_*`` cover ``cold_op`` alone, the first
        operation of the process, which builds the cached kernel families.
        Times ending in ``_self_s`` are self times;
        ``transform.auto_window_s`` is inclusive, and its share is the
        inclusive auto-window time inside forward/inverse over the time of
        the outermost forward/inverse spans.
        """
        rows = self._rows()
        sid, fid, parent, op = (rows[:, i].astype(np.int64) for i in (0, 1, 4, 5))
        dur = rows[:, 3] - rows[:, 2]
        child = np.zeros(self._next)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child[sid]
        fid_by_sid = np.full(self._next, -1)
        fid_by_sid[sid] = fid
        parent_fid = np.where(nested, fid_by_sid[np.maximum(parent, 0)], -1)

        groups = sorted(set(self.group_of))
        group = np.array([groups.index(g) for g in self.group_of])[fid]

        def fids(g):
            return [i for i, name in enumerate(self.group_of) if name == g]

        def in_group(g):
            return group == groups.index(g)

        warm = np.isin(op, sorted(ops))
        n_ops = max(len(ops), 1)
        calls = {g: int(np.sum(warm & in_group(g))) for g in groups}
        self_s = {g: float(np.sum(own[warm & in_group(g)])) for g in groups}
        forward = np.isin(fid, fids("transform.forward"))
        in_forward = np.isin(parent_fid, fids("transform.forward"))
        auto = warm & in_group("transform.auto_window")
        outer_forward_s = float(np.sum(dur[warm & forward & ~in_forward]))
        family = in_group("qspecial.family")
        cold_family = family & (op == cold_op)
        count = defaultdict(float)
        for (o, key), val in self.counts.items():
            if o in ops:
                count[key] += val

        def per_op(x, unit):
            return (x / n_ops, unit)

        return {
            "qcore.calls": per_op(calls["qcore"], "calls/op"),
            "qcore.self_s": per_op(self_s["qcore"], "s/op"),
            "qspecial.family_calls": per_op(calls["qspecial.family"], "calls/op"),
            "qspecial.family_s": per_op(self_s["qspecial.family"], "s/op"),
            "qspecial.family_cold_calls": (int(np.sum(cold_family)), "count"),
            "qspecial.family_cold_s": (float(np.sum(own[cold_family])), "s"),
            "qspecial.series_calls": per_op(calls["qspecial.series"], "calls/op"),
            "qspecial.series_s": per_op(self_s["qspecial.series"], "s/op"),
            "qops.stencil_calls": per_op(calls["qops.stencil"], "calls/op"),
            "qops.stencil_s": per_op(self_s["qops.stencil"], "s/op"),
            "qops.stencil_cells": per_op(count["qops.stencil_cells"], "cells/op"),
            "qintegrate.calls": per_op(calls["qintegrate"], "calls/op"),
            "qintegrate.self_s": per_op(self_s["qintegrate"], "s/op"),
            "transform.forward_calls": per_op(
                int(np.sum(warm & (fid == self.names.index("transform.forward")))), "calls/op"),
            "transform.forward_self_s": per_op(self_s["transform.forward"], "s/op"),
            "transform.contraction_cells": per_op(count["transform.contraction_cells"],
                                                  "cells/op"),
            "transform.auto_window_calls": per_op(calls["transform.auto_window"], "calls/op"),
            "transform.auto_window_s": per_op(float(np.sum(dur[auto])), "s/op"),
            "transform.auto_window_share": (
                float(np.sum(dur[auto & in_forward])) / outer_forward_s
                if outer_forward_s else 0.0, "ratio"),
            "transform.identity_suite_self_s": per_op(self_s["transform.identity_suite"],
                                                      "s/op"),
            "paleywiener.bandwidth_calls": per_op(calls["paleywiener.bandwidth"], "calls/op"),
            "paleywiener.bandwidth_self_s": per_op(self_s["paleywiener.bandwidth"], "s/op"),
            "paleywiener.iterates": per_op(count["paleywiener.iterates"], "count/op"),
            "paleywiener.checks_self_s": per_op(self_s["paleywiener.checks"], "s/op"),
            "cli.io_calls": per_op(calls["cli.io"], "calls/op"),
            "cli.io_s": per_op(self_s["cli.io"], "s/op"),
            "cli.io_bytes": per_op(count["cli.io_bytes"], "bytes/op"),
            "cli.main_self_s": per_op(self_s["cli.main"], "s/op"),
        }

    def write(self, path, header: dict):
        """Write every span once, as a compressed ``.npz``, with ``header`` as JSON."""
        np.savez_compressed(path, spans=self._rows(), fields=np.array(self.FIELDS),
                            functions=np.array(self.names), header=np.array(json.dumps(header)))

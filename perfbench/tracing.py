"""Outside-in span tracing of the ncross layers.

The library has no tracing of its own.  ``installed(tracer)`` replaces the
public functions named in ``FUNCTIONS`` and the methods named in
``METHODS`` with wrappers that record one span per call, and puts the
originals back on exit.  A function imported by name into other modules
(``from .plucker import qp_left``) is replaced in every ncross module that
holds it.  Scalar arithmetic dunders are deliberately not wrapped: one round
makes hundreds of thousands of them and the wrapper would dominate; their
cost lands in the self time of the caller and per-op figures come from the
micro-benchmarks instead.

Spans are kept in flat arrays (name id, start, end, parent index) and only
summarised or written out after the traced rounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from array import array

#: span name -> (defining module, attribute, importing modules or None for
#: every ncross module that holds the same object)
FUNCTIONS = {
    "linalg.solve_left": ("ncross.linalg", "solve_left", None),
    "plucker.qp_left": ("ncross.plucker", "qp_left", None),
    "plucker.qp_right": ("ncross.plucker", "qp_right", None),
    "crossratio.cross_ratio": ("ncross.crossratio", "cross_ratio", None),
    "crossratio.nc_angle": ("ncross.crossratio", "nc_angle", None),
    "crossratio.triple_ratio": ("ncross.crossratio", "triple_ratio", None),
    "crossratio.dv": ("ncross.crossratio", "dv", None),
    "geometry.menelaus_nc": ("ncross.geometry", "menelaus_nc", None),
    "geometry.barycentric": ("ncross.geometry", "barycentric", None),
    "geometry.ceva_commutative": ("ncross.geometry", "ceva_commutative", None),
    "geometry.konopelchenko": ("ncross.geometry", "konopelchenko", None),
    "schwarzian.propagate_left": ("ncross.schwarzian", "propagate_left", None),
    "schwarzian.recover_ode_coeffs": ("ncross.schwarzian",
                                      "recover_ode_coeffs", None),
    "schwarzian.gauge_theorem_check": ("ncross.schwarzian",
                                       "gauge_theorem_check", None),
    "schwarzian.expansion_check": ("ncross.schwarzian", "expansion_check",
                                   None),
    "schwarzian.infinitesimal_ceva": ("ncross.schwarzian",
                                      "infinitesimal_ceva", None),
    "pentagram.pentagram_relations_check": ("ncross.pentagram",
                                            "pentagram_relations_check", None),
    "pentagram.multiplicative_relations_check": (
        "ncross.pentagram", "multiplicative_relations_check", None),
    "pentagram.classical_pentagram": ("ncross.pentagram",
                                      "classical_pentagram", None),
    "suites.run_suite": ("ncross.suites", "run_suite", None),
    # trial-input logging: only the suites' own calls
    "suites.log_inputs": ("ncross.scalars", "scalar_to_json",
                          ("ncross.suites",)),
    "cli.emit": ("ncross.cli", "_emit", None),
}

#: span name -> (module, class, method) triples
METHODS = {
    "scalars.sample": (("ncross.scalars", "Ring", "sample"),),
    "scalars.inv": tuple(("ncross.scalars", cls, "inv") for cls in
                         ("Quaternion", "MatScalar", "ComplexScalar",
                          "RationalScalar")),
    "jets.Jet.mul": (("ncross.jets", "Jet", "__mul__"),),
    "jets.Jet.inv": (("ncross.jets", "Jet", "inv"),),
    "jets.Jet.eval": (("ncross.jets", "Jet", "eval"),),
}

#: every span name the summary reports, including the two added by the
#: benchmark itself: the root ``cli.main`` and ``suites.trial``
SPAN_NAMES = (("cli.main", "suites.trial") + tuple(FUNCTIONS)
              + tuple(METHODS))


class Tracer:
    """Span store plus the skip-reason counters of the wrapped trials."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.skips = {"undefined": 0, "breakdown": 0}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_trial(self, trial):
        """A suite's trial body that also counts why a trial was skipped."""
        from ncross.errors import NumericalBreakdown, UndefinedExpression
        skips = self.skips

        def body(d, tol):
            try:
                return trial(d, tol)
            except UndefinedExpression:
                skips["undefined"] += 1
                raise
            except NumericalBreakdown:
                skips["breakdown"] += 1
                raise

        return self.wrap("suites.trial", body)

    def summary(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name.

        A span's self time is its duration minus the durations of its
        children; calls run on one thread, so children never overlap."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            rec[0] += 1
            rec[1] += end[i] - start[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def write(self, path) -> None:
        """Write the spans as a compressed numpy archive."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            parent=np.array(self.parent), start=np.array(self.start),
            end=np.array(self.end))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace the traced functions, methods and suite trial bodies."""
    import ncross.suites
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ncross"
                                     or name.startswith("ncross."))]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for span, (home, attr, importers) in FUNCTIONS.items():
            orig = getattr(sys.modules[home], attr)
            wrapped = tracer.wrap(span, orig)
            for m in modules:
                if importers is not None and m.__name__ not in importers:
                    continue
                if m.__dict__.get(attr) is orig:
                    patch(m, attr, wrapped)
        for span, targets in METHODS.items():
            for home, cls_name, attr in targets:
                cls = getattr(sys.modules[home], cls_name)
                patch(cls, attr, tracer.wrap(span, cls.__dict__[attr]))
        suites = ncross.suites.SUITES
        for name, spec in list(suites.items()):
            undo.append((suites, name, spec))
            suites[name] = dataclasses.replace(
                spec, trial=tracer.wrap_trial(spec.trial))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

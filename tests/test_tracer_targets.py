"""Tracer coupling: every target ``perfbench/tracing.py`` patches is where
the tracer looks for it, tracing changes no report, and every patched
attribute is put back.

``installed`` replaces a function in each ncross module that holds it and
a method in its class's own ``__dict__``, so a renamed function or an
``inv`` inherited from a base class would break ``--trace 1``.  The tracer
is only read here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import ncross.cli  # noqa: F401 - the tracer patches every loaded module
import ncross.suites
from ncross.suites import SuiteConfig, list_suites

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def test_function_targets_resolve_in_their_home_modules():
    missing = []
    for span, (home, attr, importers) in tracing.FUNCTIONS.items():
        fn = importlib.import_module(home).__dict__.get(attr)
        if not callable(fn):
            missing.append(f"{span}: {home}.{attr}")
        for name in importers or ():
            if importlib.import_module(name).__dict__.get(attr) is not fn:
                missing.append(f"{span}: {name}.{attr}")
    assert not missing


def test_method_targets_are_in_their_own_class_dict():
    missing = []
    for span, targets in tracing.METHODS.items():
        for home, cls_name, attr in targets:
            cls = getattr(importlib.import_module(home), cls_name)
            if not callable(cls.__dict__.get(attr)):
                missing.append(f"{span}: {cls_name}.{attr}")
    assert not missing


def _patched_attributes():
    """Every attribute ``installed`` may replace, as (owner, name, value)."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.startswith("ncross")]
    out = [(m, attr, m.__dict__[attr]) for _, attr, _ in
           tracing.FUNCTIONS.values() for m in modules if attr in m.__dict__]
    for targets in tracing.METHODS.values():
        for home, cls_name, attr in targets:
            cls = getattr(sys.modules[home], cls_name)
            out.append((cls, attr, cls.__dict__[attr]))
    suites = ncross.suites.SUITES
    return out + [(suites, name, spec) for name, spec in suites.items()]


def _reports():
    """A 5-trial report, minus ``wall_time``, of every suite on its first
    ring, through the module attribute the tracer replaces."""
    out = {}
    for name, _, rings in list_suites():
        cfg = SuiteConfig(suite=name, ring=rings[0], trials=5, seed=3)
        doc = ncross.suites.run_suite(cfg).to_json()
        doc.pop("wall_time")
        out[name] = doc
    return out


def test_traced_reports_match_and_targets_are_restored():
    before = _patched_attributes()
    untraced = _reports()
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = _reports()
    assert traced == untraced
    calls = {k: c for k, (c, _) in tracer.summary().items()}
    assert calls["suites.run_suite"] == len(untraced)
    assert calls["suites.trial"] >= 5 * len(untraced)
    assert calls["scalars.inv"] > 0
    assert all((owner[attr] if isinstance(owner, dict)
                else owner.__dict__[attr]) is value
               for owner, attr, value in before)

"""The benchmark's per-layer trace names package functions by attribute;
a name the package no longer defines silently reads 0 there.  These
checks keep every traced name defined."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from smoothqmc.models import BlackScholesSpec
from smoothqmc.payoffs import PayoffSpec, build_separable
from smoothqmc.transforms import identity_transform

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


TRACED = sorted({(module, attr) for module, attr, *_ in _layer_functions()}
                | {("models", "increment_law_for"), ("payoffs", "build_separable"),
                   ("estimators", "method_integrand"), ("estimators", "analysis_integrand"),
                   ("estimators", "run")})


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_is_defined(module, attr):
    assert callable(getattr(importlib.import_module(f"smoothqmc.{module}"), attr, None))


def test_separable_problem_has_traced_methods():
    model = BlackScholesSpec(s0=100.0, r=0.04, sigma=0.3, T=1.0, m=4)
    problem = build_separable(PayoffSpec.for_model("binary-asian", model, 100.0),
                              model, identity_transform(4))
    assert callable(problem.lower_bound) and callable(problem.smooth_factor)

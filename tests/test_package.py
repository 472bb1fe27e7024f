"""The package's exported names."""

import inspect

import empcalc


def test_star_import_binds_public_classes_and_functions_only():
    namespace = {}
    exec("from empcalc import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    public = {name for name, value in vars(empcalc).items()
              if not name.startswith("_")
              and (inspect.isclass(value) or inspect.isfunction(value))}
    assert public <= exported
    assert {"Report", "CheckResult", "GaussianLaw", "run_clt_experiment",
            "MARGINALS", "ALL_CRITERIA"} <= exported
    assert not any(inspect.ismodule(v) for v in namespace.values())
    assert {"io", "errors", "cli", "simulate"}.isdisjoint(exported)
    assert {"SimulationReport", "default_threads", "gamma", "gamma_estimate",
            "sample_law", "CriterionResult", "standard_normal_pdf"}.isdisjoint(exported)

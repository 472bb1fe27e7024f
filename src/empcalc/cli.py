"""Command-line front end.

Subcommands
-----------
estimate   read a two-column CSV, report rho_n, plug-in moments, the
           plug-in asymptotic variance, a 95% interval, and the z-test
variance   exact asymptotic variance of a synthetic law, cross-checked
           against the combinator pipeline
simulate   Monte Carlo check of the normal limit of sqrt(n)(rho_n - rho)
lemma1     Monte Carlo check of joint normality of (G_n(f_1), .., G_n(f_k))
check      the full acceptance suite

Reports go to stdout (or --output) as JSON or CSV with the fixed
top-level key order {command, config, results, checks, seed}; everything
else (warnings, timings) goes to stderr.  Exit codes: 0 all checks pass,
1 a well-formed run failed a check, 2 usage, input, or execution error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .acceptance import DEFAULT_SEED, run_acceptance
from .correlation import (correlation_expansion, estimate_moments, sigma1_squared,
                          sigma_squared, test_zero_correlation)
from .empirical import asymptotic_variance
from .errors import EmpcalcError, InputFormatError
from .functions import p, pi1, pi2
from .io import read_paired_csv, report_to_csv, report_to_json
from .laws import BivariateLaw, GaussianLaw, IndependentLaw, law_from_spec
from .simulate import ExperimentConfig, run_clt_experiment, run_lemma1_experiment

FUNCTION_REGISTRY = {
    "pi1": pi1,
    "pi2": pi2,
    "p": p,
    "pi1^2": pi1 ** 2,
    "pi2^2": pi2 ** 2,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, assembled from parsed flags."""

    command: str
    input_path: Optional[str] = None
    law: Optional[BivariateLaw] = None
    n: int = 0
    reps: int = 0
    seed: int = DEFAULT_SEED
    threads: int = 0
    functions: tuple[str, ...] = ()
    variance_rtol: float = 0.10
    ks_tol: float = 0.03
    cov_atol: float = 0.05
    criteria: Optional[tuple[int, ...]] = None
    output_format: str = "json"
    output_path: Optional[str] = None


def _law_from_args(args) -> BivariateLaw:
    if args.law_json:
        return law_from_spec(json.loads(args.law_json))
    if args.law == "gaussian":
        if args.rho is None:
            raise InputFormatError("--law gaussian requires --rho")
        return GaussianLaw(args.rho)
    if args.law == "independent":
        if not (args.mx and args.my):
            raise InputFormatError("--law independent requires --mx and --my")
        return IndependentLaw(args.mx, args.my)
    if args.law == "mixture":
        raise InputFormatError("--law mixture requires --law-json with the full spec")
    raise InputFormatError("no law given; use --law or --law-json")


def cmd_estimate(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.input_path in (None, "-"):
        sample = read_paired_csv(sys.stdin)
    else:
        sample = read_paired_csv(cfg.input_path)
    m = estimate_moments(sample)
    rho_n = m.cov_xy / math.sqrt(m.var_x * m.var_y)
    sigma_hat2 = sigma_squared(m)
    half = 1.96 * math.sqrt(sigma_hat2 / sample.n)
    z, p_value = test_zero_correlation(sample, moments=m, rho_n=rho_n)
    report = {
        "command": "estimate",
        "config": {"input": cfg.input_path or "-"},
        "results": {
            "n": sample.n,
            "rho_n": rho_n,
            "mu_x": m.mu_x, "mu_y": m.mu_y,
            "var_x": m.var_x, "var_y": m.var_y, "cov_xy": m.cov_xy,
            "m22": m.m22, "m31": m.m31, "m13": m.m13,
            "m40": m.m40, "m04": m.m04,
            "sigma_hat2": sigma_hat2,
            "ci95": [rho_n - half, rho_n + half],
            "z": z,
            "p_value": p_value,
        },
        "checks": [],
        "seed": cfg.seed,
    }
    return report, 0


def cmd_variance(cfg: RunConfig) -> tuple[dict, int]:
    law = cfg.law
    m = law.bivariate_moments()
    closed = sigma_squared(m)
    expansion = correlation_expansion(m)
    pipeline = asymptotic_variance(expansion, law)
    diff = abs(closed - pipeline)
    tol = 1e-9 * max(1.0, abs(closed))
    ok = diff <= tol
    report = {
        "command": "variance",
        "config": {"law": law.describe()},
        "results": {
            "rho": expansion.value,
            "sigma2": closed,
            "sigma2_pipeline": pipeline,
            "abs_difference": diff,
            "sigma1_squared": sigma1_squared(m),
        },
        "checks": [{"name": "pipeline_agreement", "value": diff,
                    "threshold": tol, "pass": ok}],
        "seed": cfg.seed,
    }
    return report, 0 if ok else 1


def _experiment_config(cfg: RunConfig) -> ExperimentConfig:
    return ExperimentConfig(law=cfg.law, n=cfg.n, reps=cfg.reps,
                            seed=cfg.seed, threads=cfg.threads)


def cmd_simulate(cfg: RunConfig) -> tuple[dict, int]:
    rep = run_clt_experiment(_experiment_config(cfg),
                             variance_rtol=cfg.variance_rtol, ks_tol=cfg.ks_tol)
    d = rep.to_dict()
    report = {"command": "simulate", "config": d["config"],
              "results": d["results"], "checks": d["checks"], "seed": d["seed"]}
    return report, 0 if rep.passed else 1


def cmd_lemma1(cfg: RunConfig) -> tuple[dict, int]:
    try:
        fs = [FUNCTION_REGISTRY[name] for name in cfg.functions]
    except KeyError as exc:
        raise InputFormatError(
            f"unknown function {exc}; available: {', '.join(sorted(FUNCTION_REGISTRY))}") from None
    rep = run_lemma1_experiment(fs, _experiment_config(cfg),
                                cov_atol=cfg.cov_atol, ks_tol=cfg.ks_tol)
    d = rep.to_dict()
    report = {"command": "lemma1", "config": d["config"],
              "results": d["results"], "checks": d["checks"], "seed": d["seed"]}
    return report, 0 if rep.passed else 1


def cmd_check(cfg: RunConfig) -> tuple[dict, int]:
    results = run_acceptance(cfg.criteria, seed=cfg.seed, threads=cfg.threads)
    for r in results:
        print(f"criterion {r.number} ({r.name}): "
              f"{'pass' if r.passed else 'FAIL'} in {r.runtime_seconds:.2f}s",
              file=sys.stderr)
    all_pass = all(r.passed for r in results)
    flat = []
    for r in results:
        for c in r.checks:
            flat.append({"name": f"criterion_{r.number}.{c.name}", "value": c.value,
                         "threshold": c.threshold, "pass": c.passed})
    report = {
        "command": "check",
        "config": {"criteria": [r.number for r in results]},
        "results": {"criteria": [r.to_dict() for r in results],
                    "all_pass": all_pass},
        "checks": flat,
        "seed": cfg.seed,
    }
    return report, 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empcalc",
        description="Asymptotics of plug-in statistics: estimation, exact "
                    "variance formulas, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, law=False, experiment=False):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--threads", type=int, default=0,
                        help="worker budget; 0 defers to EMPCALC_THREADS")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write the report here "
                        "instead of stdout")
        if law:
            sp.add_argument("--law", choices=("gaussian", "independent", "mixture"))
            sp.add_argument("--rho", type=float, default=None)
            sp.add_argument("--mx", default=None, help="x marginal name")
            sp.add_argument("--my", default=None, help="y marginal name")
            sp.add_argument("--law-json", default=None,
                            help="full law spec as JSON (required for mixtures)")
        if experiment:
            sp.add_argument("--n", type=int, required=True, help="sample size per replicate")
            sp.add_argument("--reps", type=int, required=True, help="replicate count")
            sp.add_argument("--ks-tol", type=float, default=0.03)

    sp = sub.add_parser("estimate", help="estimate correlation from a CSV file")
    sp.add_argument("--input", required=True, help="CSV path, or - for stdin")
    common(sp)

    sp = sub.add_parser("variance", help="exact asymptotic variance of a law")
    common(sp, law=True)

    sp = sub.add_parser("simulate", help="Monte Carlo check of the CLT for rho_n")
    common(sp, law=True, experiment=True)
    sp.add_argument("--variance-rtol", type=float, default=0.10)

    sp = sub.add_parser("lemma1", help="Monte Carlo check of joint normality")
    common(sp, law=True, experiment=True)
    sp.add_argument("--functions", default="pi1,pi2,p",
                    help="comma-separated names: " + ", ".join(sorted(FUNCTION_REGISTRY)))
    sp.add_argument("--cov-atol", type=float, default=0.05)

    sp = sub.add_parser("check", help="run the acceptance suite")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers, default all")
    common(sp)
    return parser


def _run_config(args) -> RunConfig:
    if args.seed < 0:
        raise InputFormatError(f"--seed must be >= 0, got {args.seed}")
    criteria = None
    if getattr(args, "criteria", None):
        try:
            criteria = tuple(int(tok) for tok in args.criteria.split(","))
        except ValueError:
            raise InputFormatError(
                f"--criteria must be comma-separated integers, got {args.criteria!r}") from None
    functions = ()
    if getattr(args, "functions", None):
        functions = tuple(tok.strip() for tok in args.functions.split(",") if tok.strip())
    law = None
    if getattr(args, "law", None) or getattr(args, "law_json", None):
        law = _law_from_args(args)
    elif args.command in ("variance", "simulate", "lemma1"):
        raise InputFormatError(f"{args.command} requires --law or --law-json")
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        law=law,
        n=getattr(args, "n", 0),
        reps=getattr(args, "reps", 0),
        seed=args.seed,
        threads=args.threads,
        functions=functions,
        variance_rtol=getattr(args, "variance_rtol", 0.10),
        ks_tol=getattr(args, "ks_tol", 0.03),
        cov_atol=getattr(args, "cov_atol", 0.05),
        criteria=criteria,
        output_format=args.format,
        output_path=args.output,
    )


_HANDLERS = {
    "estimate": cmd_estimate,
    "variance": cmd_variance,
    "simulate": cmd_simulate,
    "lemma1": cmd_lemma1,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _run_config(args)
        report, code = _HANDLERS[cfg.command](cfg)
    except EmpcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in --law-json: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report_to_json(report) if cfg.output_format == "json" else report_to_csv(report)
    try:
        if cfg.output_path:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

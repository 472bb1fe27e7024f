"""Command-line front end.

Subcommands
-----------
estimate   read a two-column CSV, report rho_n, plug-in moments, the
           plug-in asymptotic variance, a 95% interval, and the z-test
variance   exact asymptotic variance of a synthetic law, cross-checked
           against the delta-method pipeline
simulate   Monte Carlo check of the normal limit of sqrt(n)(rho_n - rho)
lemma1     Monte Carlo check of joint normality of (G_n(f_1), .., G_n(f_k))
check      the full acceptance suite

Each handler returns an :class:`~empcalc.io.Report`, which goes to stdout
(or --output) as JSON or CSV with the fixed top-level key order
{command, config, results, checks, seed}; everything
else (warnings, timings) goes to stderr.  Exit codes: 0 all checks pass,
1 a well-formed run failed a check, 2 usage, input, or execution error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .acceptance import DEFAULT_SEED, run_acceptance
from .correlation import (correlation_expansion, estimate_moments, rho_from_moments,
                          sigma1_squared, sigma_squared, test_zero_correlation)
from .empirical import asymptotic_variance
from .errors import EmpcalcError, InputFormatError
from .functions import p, pi1, pi2
from .io import CheckResult, Report, read_paired_csv, report_to_csv, report_to_json
from .laws import BivariateLaw, GaussianLaw, IndependentLaw, law_from_spec
from .simulate import ExperimentConfig, run_clt_experiment, run_lemma1_experiment

FUNCTION_REGISTRY = {
    "pi1": pi1,
    "pi2": pi2,
    "p": p,
    "pi1^2": pi1 ** 2,
    "pi2^2": pi2 ** 2,
}


def _law_from_args(args) -> BivariateLaw:
    if args.law_json:
        others = [flag for flag, value in (("--law", args.law), ("--rho", args.rho),
                                           ("--mx", args.mx), ("--my", args.my))
                  if value is not None]
        if others:
            raise InputFormatError(f"--law-json cannot be combined with {', '.join(others)}")
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
    raise InputFormatError(f"{args.command} requires --law or --law-json")


def cmd_estimate(args) -> Report:
    sample = read_paired_csv(sys.stdin if args.input == "-" else args.input)
    m = estimate_moments(sample)
    rho_n = rho_from_moments(m)
    sigma_hat2 = sigma_squared(m)
    half = 1.96 * math.sqrt(sigma_hat2 / sample.n)
    z, p_value = test_zero_correlation(sample, moments=m, rho_n=rho_n)
    results = {
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
    }
    return Report("estimate", {"input": args.input}, results, [], args.seed)


def cmd_variance(args) -> Report:
    law = _law_from_args(args)
    m = law.bivariate_moments()
    closed = sigma_squared(m)
    expansion = correlation_expansion(m)
    pipeline = asymptotic_variance(expansion, law)
    diff = abs(closed - pipeline)
    tol = 1e-9 * max(1.0, abs(closed))
    results = {
        "rho": expansion.value,
        "sigma2": closed,
        "sigma2_pipeline": pipeline,
        "abs_difference": diff,
        "sigma1_squared": sigma1_squared(m),
    }
    return Report("variance", {"law": law.describe()}, results,
                  [CheckResult("pipeline_agreement", diff, tol, diff <= tol)], args.seed)


def _experiment_config(args, law: BivariateLaw) -> ExperimentConfig:
    return ExperimentConfig(law=law, n=args.n, reps=args.reps, seed=args.seed,
                            threads=args.threads)


def cmd_simulate(args) -> Report:
    return run_clt_experiment(_experiment_config(args, _law_from_args(args)),
                              variance_rtol=args.variance_rtol, ks_tol=args.ks_tol)


def cmd_lemma1(args) -> Report:
    law = _law_from_args(args)
    try:
        fs = [FUNCTION_REGISTRY[name.strip()] for name in args.functions.split(",")
              if name.strip()]
    except KeyError as exc:
        raise InputFormatError(
            f"unknown function {exc}; available: {', '.join(sorted(FUNCTION_REGISTRY))}") from None
    return run_lemma1_experiment(fs, _experiment_config(args, law),
                                 cov_atol=args.cov_atol, ks_tol=args.ks_tol)


def cmd_check(args) -> Report:
    criteria = None
    if args.criteria:
        try:
            criteria = [int(tok) for tok in args.criteria.split(",")]
        except ValueError:
            raise InputFormatError(
                f"--criteria must be comma-separated integers, got {args.criteria!r}") from None
    return run_acceptance(criteria, seed=args.seed, threads=args.threads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empcalc",
        description="Asymptotics of plug-in statistics: estimation, exact "
                    "variance formulas, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, handler, law=False, experiment=False, threads=False):
        sp.set_defaults(handler=handler)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if experiment or threads:
            sp.add_argument("--threads", type=int, default=1,
                            help="blocks of replicates run side by side")
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
    common(sp, cmd_estimate)

    sp = sub.add_parser("variance", help="exact asymptotic variance of a law")
    common(sp, cmd_variance, law=True)

    sp = sub.add_parser("simulate", help="Monte Carlo check of the CLT for rho_n")
    common(sp, cmd_simulate, law=True, experiment=True)
    sp.add_argument("--variance-rtol", type=float, default=0.10)

    sp = sub.add_parser("lemma1", help="Monte Carlo check of joint normality")
    common(sp, cmd_lemma1, law=True, experiment=True)
    sp.add_argument("--functions", default="pi1,pi2,p",
                    help="comma-separated names: " + ", ".join(sorted(FUNCTION_REGISTRY)))
    sp.add_argument("--cov-atol", type=float, default=0.05)

    sp = sub.add_parser("check", help="run the acceptance suite")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers, default all")
    common(sp, cmd_check, threads=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise InputFormatError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "threads", 1) < 1:
            raise InputFormatError(f"--threads must be >= 1, got {args.threads}")
        report = args.handler(args)
    except EmpcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in --law-json: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    d = report.to_dict()
    text = report_to_json(d) if args.format == "json" else report_to_csv(d)
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

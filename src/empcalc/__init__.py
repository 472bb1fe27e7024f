"""Asymptotic normal laws of plug-in statistics via the empirical process.

The package exposes three layers:

* a calculus of first-order expansions (StatFunction, AsymptoticExpansion,
  the add/mul/div/smooth_map combinators, the covariance functional Gamma);
* the linear-correlation worked example (plug-in estimation, the influence
  function, closed-form asymptotic variances, a zero-correlation z-test);
* a Monte Carlo harness with exact-moment synthetic laws that verifies the
  claimed normal limits at desk scale, plus a CLI (``empcalc``).
"""

from .errors import (AffineDependenceError, DegenerateSampleError, EmpcalcError,
                     EvaluationError, ExpansionError, InputFormatError,
                     MomentError, SimulationError)
from .functions import StatFunction, constant, p, pi1, pi2
from .sample import PairedSample
from .normal import standard_normal_cdf, standard_normal_pdf
from .expansion import (AsymptoticExpansion, add, constant_expansion, div,
                        from_mean, mul, smooth_map)
from .empirical import (CovarianceEstimate, CovarianceMatrix, MomentOracle,
                        PolynomialMomentOracle, SamplingMoments,
                        asymptotic_variance, asymptotic_variance_estimate,
                        gamma, gamma_estimate, gamma_matrix, gn_eval)
from .correlation import (BivariateMoments, ZeroCorrelationTest, compute_rho_n,
                          correlation_expansion, correlation_influence,
                          estimate_moments, moments_from_oracle, population_rho,
                          sigma1_squared, sigma_squared, test_zero_correlation)
from .laws import (MARGINALS, BivariateLaw, DiscreteLaw, GaussianLaw,
                   IndependentLaw, Marginal, MixtureLaw, get_marginal,
                   law_from_spec, sample_law)
from .simulate import (CheckResult, ExperimentConfig, SimulationReport,
                       default_threads, ks_statistic,
                       run_clt_experiment, run_lemma1_experiment)
from .io import (read_paired_csv, report_to_csv, report_to_json,
                 write_paired_csv)
from .acceptance import ALL_CRITERIA, CriterionResult, run_acceptance
from .streams import derive_rng, derive_seed

__version__ = "0.1.0"

__all__ = [
    "ALL_CRITERIA", "AffineDependenceError", "AsymptoticExpansion", "BivariateLaw",
    "BivariateMoments", "CheckResult", "CovarianceEstimate", "CovarianceMatrix",
    "CriterionResult", "DegenerateSampleError", "DiscreteLaw", "EmpcalcError", "EvaluationError",
    "ExpansionError", "ExperimentConfig", "GaussianLaw", "IndependentLaw",
    "InputFormatError", "MARGINALS", "Marginal", "MixtureLaw", "MomentError",
    "MomentOracle", "PairedSample", "PolynomialMomentOracle", "SamplingMoments",
    "SimulationError", "SimulationReport", "StatFunction", "ZeroCorrelationTest",
    "add", "asymptotic_variance", "asymptotic_variance_estimate",
    "compute_rho_n", "constant", "constant_expansion", "correlation_expansion",
    "correlation_influence", "derive_rng", "derive_seed", "div",
    "default_threads", "estimate_moments", "from_mean", "gamma",
    "gamma_estimate", "gamma_matrix",
    "get_marginal", "gn_eval", "ks_statistic", "law_from_spec",
    "moments_from_oracle", "mul", "p", "pi1", "pi2", "population_rho",
    "read_paired_csv", "report_to_csv", "report_to_json",
    "run_acceptance", "run_clt_experiment",
    "run_lemma1_experiment", "sample_law", "sigma1_squared", "sigma_squared",
    "smooth_map", "standard_normal_cdf", "standard_normal_pdf",
    "test_zero_correlation", "write_paired_csv",
]

"""Asymptotic normal laws of plug-in statistics via the empirical process.

The package exposes three layers:

* a calculus of first-order expansions (StatFunction, AsymptoticExpansion,
  the delta method and its + - * / sugar, the covariance functional Gamma);
* the linear-correlation worked example (plug-in estimation, the influence
  function, closed-form asymptotic variances, a zero-correlation z-test);
* a Monte Carlo harness with exact-moment synthetic laws that verifies the
  claimed normal limits at desk scale, plus a CLI (``empcalc``).
"""

from types import ModuleType as _ModuleType

from .errors import (AffineDependenceError, DegenerateSampleError, EmpcalcError,
                     EvaluationError, ExpansionError, InputFormatError,
                     MomentError, SimulationError)
from .functions import StatFunction, constant, p, pi1, pi2
from .sample import PairedSample
from .expansion import AsymptoticExpansion, constant_expansion, delta, from_mean
from .empirical import (CovarianceEstimate, CovarianceMatrix, MomentOracle,
                        PolynomialMomentOracle, SamplingMoments,
                        asymptotic_variance, asymptotic_variance_estimate,
                        gamma_matrix, gn_eval)
from .correlation import (BivariateMoments, ZeroCorrelationTest, compute_rho_n,
                          correlation_expansion, correlation_influence, estimate_moments,
                          rho_from_moments, sigma1_squared, sigma_squared, test_zero_correlation)
from .laws import (MARGINALS, BivariateLaw, DiscreteLaw, GaussianLaw,
                   IndependentLaw, Marginal, MixtureLaw, get_marginal,
                   law_from_spec)
from .simulate import (ExperimentConfig, ks_statistic, run_clt_experiment,
                       run_lemma1_experiment, standard_normal_cdf)
from .io import (CheckResult, Report, read_paired_csv, report_to_csv,
                 report_to_json, write_paired_csv)
from .acceptance import ALL_CRITERIA, run_acceptance
from .streams import derive_rng, derive_seed

__version__ = "0.1.0"

# every name imported above; importing them also binds the submodules,
# which stay reachable as attributes but are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

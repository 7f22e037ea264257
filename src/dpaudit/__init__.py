"""Empirical differential-privacy auditing from mechanism output samples.

Given two one-dimensional score samples from neighbouring worlds, this
package estimates (epsilon, delta) points, full privacy profiles, and
trade-off curves via histogram density estimation and the hockey-stick
divergence, attaches multinomial confidence bounds, and composes estimated
privacy-loss distributions for iterative mechanisms.
"""

from .canary import (OneShotConfig, WhiteBoxConfig, one_shot_audit, one_shot_scores_gram,
                     whitebox_source, whitebox_stream)
from .confidence import canonne_radius, hs_interval
from .discrete import (DiscreteDistribution, coarsen, hs_divergence,
                       symmetric_delta, tv_distance)
from .errors import (AuditError, DegenerateSamplesError, FitError, GridOverflowError,
                     ProfileOrderError, ScoreFileError)
from .estimators import (AuditConfig, AuditReport, EpsilonEstimate,
                         SigmaEstimate, ThresholdEstimate,
                         f_alpha_sensitivity, fit_mu_gdp, histogram_audit,
                         threshold_epsilon, two_bin_histogram)
from .histogram import (BinningSpec, HistogramEstimate, auto_spec,
                        build_histograms, estimate_delta_symmetric,
                        estimate_profile, scott_width_gaussian)
from .mechanisms import (GaussianMechanism, LaplaceMechanism,
                         SubsampledGaussianMechanism, gaussian_delta,
                         gdp_tradeoff, laplace_tradeoff, sigma_from_tv)
from .pld import (PLDGrid, compose_profile, delta_from_pld, pld_from_discrete,
                  self_convolve)
from .profiles import PrivacyProfile
from .scores import ScoreSource, read_scores, write_scores
from .tradeoff import TradeoffCurve, f_eps_delta, profile_to_tradeoff, validate

__version__ = "0.1.0"

"""Simulation and verification lab for positive self-similar Markov
processes built from killed Levy processes via the Lamperti time change."""

from . import catalog
from ._kernels import BACKEND as kernel_backend
from .engine import FunctionalBatch, MarginalBatch, functional_batch, marginal_batch
from .expfun import (
    CheckReport,
    ExpFunEstimate,
    dual_identity_check,
    moment,
    negative_moment_check,
    recursion_check,
    sample_I,
)
from .extensions import (
    ExtensionConfig,
    ExtensionPath,
    entrance_mass_check,
    occupation_histogram,
    resolvent_check,
    sample_jump_in_restart,
    simulate_extension,
)
from .lamperti import PssmpPath, hitting_time_samples, levy_to_pssmp, pssmp_to_levy
from .models import (
    CompoundPoisson,
    CramerReport,
    Exponential,
    LevyModel,
    PointMass,
    TemperedPower,
    cramer_root,
    dual,
    esscher,
    load_model,
)
from .paths import LevyPath, SimConfig, sample_levy_path, stream_rng
from .verify import (
    KsReport,
    RenewalProblem,
    counterexample_demo,
    ks_two_sample,
    renewal_limit,
    scaling_test,
)

__version__ = "0.1.0"

"""Causal effect estimation under an unobserved categorical confounder.

The confounder is never observed directly; its mixture structure is
recovered from conditionally independent proxies (or repeated treatments)
by spectral decomposition of low-order moments, and treatment effects are
then estimated by posterior-weighted regressions.
"""

from .benchmark import run_benchmark, summarize
from .causal import (
    CausalEstimate,
    OutcomeModel,
    TreatmentModel,
    estimate_ate,
    estimate_cate,
    fit_effects,
)
from .dataio import (
    load_model,
    model_from_dict,
    model_to_dict,
    read_dataset,
    save_model,
    scenario_from_dict,
    scenario_to_dict,
    truth_path,
    write_dataset,
    write_report,
    write_truth,
)
from .errors import (
    DegenerateCluster,
    DegenerateSpectrum,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    LatentCauseError,
    NonConvergence,
    RankDeficiency,
    SingularSystem,
    UnfittedModel,
)
from .kernels import KernelSpec
from .mixture import (
    MixtureEstimate,
    PosteriorMatrix,
    align_permutation,
    density,
    fit_discrete_multiview,
    fit_multiview,
    posteriors,
    scree,
    scree_discrete,
    select_rank,
)
from .multitreatment import (
    MultiTreatmentModel,
    fit_multitreatment,
    mt_ate,
    mt_cate,
)
from .scenarios import (
    MultiProxyScenario,
    MultiTreatmentScenario,
    oracle_discrete_posteriors,
    oracle_posteriors,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    true_ate_multiproxy,
    true_ate_multitreatment,
    two_state_discrete,
)

__version__ = "0.1.0"

"""The package's exported names: the two front doors and what serves them."""

import types

import latentcause

PUBLIC_NAMES = [
    "CausalEstimate", "DegenerateCluster", "DegenerateSpectrum", "DimensionMismatch",
    "EmptyInput", "InvalidConfig", "KernelSpec", "LatentCauseError", "MixtureEstimate",
    "MultiProxyScenario", "MultiTreatmentModel", "MultiTreatmentScenario", "NonConvergence",
    "OutcomeModel", "PosteriorMatrix", "RankDeficiency", "SingularSystem", "TreatmentModel",
    "UnfittedModel", "align_permutation", "density", "estimate_ate", "estimate_cate",
    "fit_discrete_multiview", "fit_effects", "fit_multitreatment", "fit_multiview",
    "load_model", "model_from_dict", "model_to_dict", "mt_ate", "mt_cate",
    "oracle_discrete_posteriors", "oracle_posteriors", "posteriors", "read_dataset",
    "run_benchmark", "save_model", "scenario_from_dict", "scenario_to_dict", "scree",
    "scree_discrete", "select_rank", "simulate_multiproxy", "simulate_multitreatment",
    "summarize", "three_cluster_gaussian", "true_ate_multiproxy", "true_ate_multitreatment",
    "truth_path", "two_state_discrete", "write_dataset", "write_report", "write_truth",
]


def test_exported_names_are_pinned():
    # the regression stages and the tensor functions stay module attributes
    # (latentcause.causal.fit_treatment, latentcause.tensor_spectral.build_whitener)
    # and are not re-exported here
    exported = sorted(name for name, value in vars(latentcause).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES

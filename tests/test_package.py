"""The package namespace: every public name is importable from `asymcap`."""

import asymcap

# The exports of asymcap 0.1.0, when __init__.py listed them by hand.
EXPORTS_0_1_0 = (
    "AlphabetLimitError", "CapacityResult", "SolverOptions", "capacity_closed_form_bsc",
    "capacity_gap", "capacity_grid", "capacity_optimize", "input_mutual_information",
    "mutual_information_gradient", "simplex_project", "sweep_capacity_surface",
    "CODEBOOK_CELL_CAP", "CodebookLimitError", "CodebookPair", "SimConfig",
    "TrialReport", "collision_experiment", "generate_codebooks", "induced_channel",
    "map_decode", "run_experiment", "transmit", "typicality_decode",
    "DimensionMismatch", "DomainError", "JointPmf", "MatrixFileError", "Pmf",
    "TransitionMatrix", "binary_entropy", "bsc", "build_joint_uy", "build_joint_xuyv",
    "check_markov", "composite_crossover", "conditional_entropy", "entropy",
    "load_matrix", "mutual_information", "derive_seed", "sample_pmf", "sample_rows",
    "stream", "CheckResult", "VerificationReport", "codebook_iid_zscores",
    "corrupted_joint_violation", "default_grid", "identity_residuals",
    "run_verification", "sampled_pair_tv", "__version__",
)


def test_exports_kept():
    assert len(EXPORTS_0_1_0) == 52
    for name in EXPORTS_0_1_0:
        assert name in asymcap.__all__
        assert hasattr(asymcap, name)


def test_all_lists_each_importable_name_once():
    assert len(set(asymcap.__all__)) == len(asymcap.__all__)
    namespace = {}
    exec("from asymcap import *", namespace)
    assert set(asymcap.__all__) <= set(namespace)

"""Granular-ball twin SVM classifiers with random feature enhancement."""

from .dataset import (
    DataError,
    Dataset,
    SplitPair,
    generate_ndc,
    inject_label_noise,
    kfold_indices,
    load_csv,
    normalize_minmax,
    split_train_test,
    write_csv,
)
from .evaluation import (
    Metrics,
    RankTable,
    compute_metrics,
    friedman_test,
    grid_search_cv,
    nemenyi_cd,
    rank_models,
)
from .features import RandomLayer, activate, enhanced_features, hidden_features, init_random_layer
from .granular import GranularBall, GranularBallSet, generate_granular_balls, two_means
from .model import (
    ModelConfig,
    RVFLModel,
    TwinModel,
    decision_values,
    fit,
    fit_rvfl_baseline,
    load_model,
    predict,
    save_model,
)
from .qp import BoxQP, NumericalError, QPSolution, kkt_residual, ridge_factorize, solve_box_qp, solve_spd

__version__ = "0.1.0"

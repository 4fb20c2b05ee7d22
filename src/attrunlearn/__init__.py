"""Post-training removal of sensitive user attributes from recommender embeddings.

The pipeline consumes a trained user-embedding matrix, calibrates one copy
per sensitive attribute by minimizing a classifier-based mutual-information
surrogate inside a Frobenius ball, then merges the copies under optimized
simplex weights so a single released matrix protects every requested
attribute. Evaluation covers inference-attack accuracy and leave-one-out
ranking quality.
"""

from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    calibrate,
    project_ball,
)
from .cf import CFModel, CFTrainConfig, train_cf
from .combination import (
    BoundCheckReport,
    CombinationConfig,
    CombinationResult,
    average_combination,
    bound_check,
    combine,
    joint_unlearn,
    optimize_weights,
    project_simplex_softmax,
    summed_estimate_and_alpha_gradient,
    summed_mi_estimate,
)
from .data import (
    AttributeTable,
    InteractionDataset,
    RawRatings,
    bin_attributes,
    load_ml100k,
    load_ml1m,
    preprocess_split,
    synthetic_dataset,
)
from .evaluation import (
    AttackReport,
    FoldSpec,
    RecReport,
    attack_metrics,
    bacc,
    hr_ndcg_at_k,
    make_folds,
    micro_f1,
    train_attacker,
)
from .mi import (
    DiscreteJoint,
    VariationalModel,
    contrastive_step,
    discrete_mi_oracle,
    estimate_vclub,
    fit_variational_step,
    make_variational_model,
    mi_over_embedding,
)
from .nets import (
    DenseNetwork,
    GradientBundle,
    OptimizerState,
    forward,
    forward_backward,
    gradient_check,
    init_network,
    log_softmax_nll,
    optimizer_step,
)
from .scenario import (
    Config,
    RunReport,
    ScenarioScript,
    calibrate_many,
    dp_baseline,
    run_scenario,
)
from .store import EmbeddingStore, StoreError

__version__ = "0.1.0"

"""ctrlab: a desk-scale laboratory for large-batch CTR model training.

The pieces: datasets with controlled id-frequency skew (data), embedding
tables with sparse gradients (embedding), four manually-differentiated CTR
models (models), Adam with warmup (optim), adaptive column-wise gradient
clipping, CowClip (clip), batch-size hyperparameter scaling rules
(scaling), AUC/logloss (metrics), and an experiment runner (harness, cli).
"""

from .data import (
    Batch,
    Dataset,
    FieldSchema,
    batch_presence_probability,
    count_frequencies,
    generate_synthetic,
    load_criteo_tsv,
    load_dataset,
    make_batches,
    save_dataset,
    top_k_collapse,
)
from .embedding import (
    EmbeddingTable,
    SparseGradient,
    accumulate_gradients,
    init_table,
    lookup_forward,
)
from .metrics import EvalResult, auc, evaluate, logloss
from .models import (
    Model,
    init_model,
    load_checkpoint,
    loss_and_backward,
    model_forward,
    save_checkpoint,
)
from .optim import (
    AdamState,
    EmbedAdamState,
    WarmupSchedule,
    adam_sparse_step,
    adam_step,
    verify_adam_scaling_equivalence,
    verify_sgd_scaling_equivalence,
)
from .clip import ClipConfig, apply_clip, cowclip
from .scaling import (
    BaseHyperparams,
    ScalingPlan,
    estimate_update_covariance,
    expected_update_frequency_check,
    plan_for_batch,
    scale,
)
from .harness import ExperimentConfig, RunRecord, grad_check, sweep, train, verify

__version__ = "0.1.0"

"""Desk-scale continual learning with branched low-rank adapters."""

from .adapters import (
    AdapterHyperparams,
    AdapterLayer,
    BackboneLayer,
    BranchLoRALayer,
    LoRALayer,
    MoELoRALayer,
)
from .analysis import efficiency_report, expert_similarity, expert_vectors
from .checkpoint import load_model, save_model
from .config import (
    AdapterConfig,
    ExperimentConfig,
    StreamConfig,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from .errors import (
    AnalysisError,
    BranchclError,
    ConfigError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
    ParameterError,
    PolicyError,
    RoutingError,
    SelectorError,
)
from .harness import ImmutabilityGuard, aggregate_reports, evaluate, run_seed, train_task
from .metrics import EvalMatrix, Metrics, compute_metrics, task_wise_maa
from .model import ContinualModel, ModelConfig, build_model
from .optim import Adam, Sgd, make_optimizer
from .routing import FreezeLedger, UsageStats, apply_freeze, select_freeze_set
from .selector import (
    KeyStore,
    StackedKeys,
    TaskKeys,
    alignment_loss,
    select_task,
    selector_accuracy,
)
from .stream import SyntheticTask, TaskStream, generate_stream, stream_fingerprint
from .tensor import Matrix, Tape, backward, cross_entropy, mse_loss

__version__ = "0.1.0"

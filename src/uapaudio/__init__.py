"""Universal adversarial perturbations for raw-waveform audio classifiers.

Two crafting methods against differentiable victims: a greedy loop that
aggregates minimal per-sample attacks under an lp budget, and a penalty
method that descends a loudness-plus-hinge objective in tanh space. The
package also ships loudness metrics, a significance test, desk-scale victim
models with a synthetic dataset, and a CLI (`uapaudio`).
"""

from .audio import (
    DEFAULT_SAMPLE_RATE,
    POWER_FLOOR,
    AudioSample,
    load_wav,
    rel_loudness,
    rms_power,
    save_wav,
    snr,
    spl,
)
from .data import SyntheticDataset, generate_synthetic_dataset, load_dataset_dir, save_dataset_dir
from .ddn import CraftResult, InnerAttackResult, ddn_minimal_perturbation
from .evaluation import (
    DATACOUNT_GRID,
    DEFAULT_ALPHA,
    KAPPA_GRID,
    EvalReport,
    EvalRow,
    TransferMatrix,
    ZTestResult,
    applied_perturbation,
    evaluate_uap,
    report_summary,
    report_to_csv,
    single_sample_attack,
    sweep_confidence,
    sweep_datacount,
    sweep_to_csv,
    transfer_matrix,
    transfer_to_csv,
    two_proportion_z,
)
from .exceptions import (
    DegenerateVarianceError,
    FormatError,
    InvalidInputError,
    UapAudioError,
    UndefinedMetricError,
)
from .greedy import GreedyConfig, asr, greedy_uap, project_lp
from .models import (
    ARCHITECTURES,
    VictimModel,
    accuracy,
    build_victim,
    load_model,
    save_model,
    train,
)
from .optim import AdamState, adam_update
from .penalty import PenaltyConfig, penalty_uap
from .perturbation import Perturbation, load_perturbation, save_perturbation
from .tanhspace import TANH_EPSILON, perturbed_sample, render_signal_v, to_tanh_space

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES",
    "AdamState",
    "AudioSample",
    "CraftResult",
    "DATACOUNT_GRID",
    "DEFAULT_ALPHA",
    "DEFAULT_SAMPLE_RATE",
    "DegenerateVarianceError",
    "EvalReport",
    "EvalRow",
    "FormatError",
    "GreedyConfig",
    "InnerAttackResult",
    "InvalidInputError",
    "KAPPA_GRID",
    "POWER_FLOOR",
    "PenaltyConfig",
    "Perturbation",
    "SyntheticDataset",
    "TANH_EPSILON",
    "TransferMatrix",
    "UapAudioError",
    "UndefinedMetricError",
    "VictimModel",
    "ZTestResult",
    "accuracy",
    "adam_update",
    "applied_perturbation",
    "asr",
    "build_victim",
    "ddn_minimal_perturbation",
    "evaluate_uap",
    "generate_synthetic_dataset",
    "greedy_uap",
    "load_dataset_dir",
    "load_model",
    "load_perturbation",
    "load_wav",
    "penalty_uap",
    "perturbed_sample",
    "project_lp",
    "rel_loudness",
    "render_signal_v",
    "report_summary",
    "report_to_csv",
    "rms_power",
    "save_dataset_dir",
    "save_model",
    "save_perturbation",
    "save_wav",
    "single_sample_attack",
    "snr",
    "spl",
    "sweep_confidence",
    "sweep_datacount",
    "sweep_to_csv",
    "to_tanh_space",
    "train",
    "transfer_matrix",
    "transfer_to_csv",
    "two_proportion_z",
]

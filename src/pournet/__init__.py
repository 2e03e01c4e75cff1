"""Sequence learning for pouring: predict container weight curves from
rotation angle and container/material features with from-scratch stacked
LSTM/GRU networks, and score predictions with exact DTW and FastDTW."""

from .data import (NormalizationSpec, PaddedBatch, PouringSequence,
                   StaticFeatures, fit_normalization, load_dataset,
                   pad_and_batch, save_dataset, split_dataset)
from .dtw import (DTWResult, dtw_exact, export_alignment, fastdtw,
                  score_testset, validate_warp_path)
from .network import (CellKind, ForwardCache, LayerParams, NetworkConfig,
                      NetworkParams, init_params, load_checkpoint,
                      network_backward, network_forward, numerical_gradient,
                      save_checkpoint)
from .optim import AdamState, NonFiniteGradientError, adam_step, init_adam, mse_loss
from .synth import SynthParams, generate_dataset, generate_sequence
from .training import (TrainConfig, TrainingDivergedError, TrainReport,
                       export_loss_curve, export_prediction, predict, train)

__version__ = "0.1.0"

"""Autodiff engine, network layers and training utilities."""

from .autodiff import Tensor, backward, masked_softmax
from .checkpoint import load_checkpoint, save_checkpoint
from .features import window_moments
from .layers import (
    DenseReadout,
    GatLayer,
    GcnLayer,
    LstmCell,
    NodeReadout,
    glorot_uniform,
)
from .models import (
    SpatialTemporalModel,
    TemporalOnlyModel,
    mse_loss,
    set_parameters,
    snapshot_parameters,
)
from .optim import Adam

__all__ = [
    "Adam",
    "DenseReadout",
    "GatLayer",
    "GcnLayer",
    "LstmCell",
    "NodeReadout",
    "SpatialTemporalModel",
    "TemporalOnlyModel",
    "Tensor",
    "backward",
    "glorot_uniform",
    "load_checkpoint",
    "masked_softmax",
    "mse_loss",
    "save_checkpoint",
    "set_parameters",
    "snapshot_parameters",
    "window_moments",
]

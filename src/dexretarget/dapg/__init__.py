"""Demo-augmented policy gradient on the toy relocate task."""

from .env import demos_from_expert, scripted_expert_action
from .nets import GaussianPolicy, ValueFunction
from .trainer import (
    DapgConfig,
    bc_pretrain,
    compute_advantages,
    dapg_gradient,
    train,
)

__all__ = [
    "DapgConfig",
    "GaussianPolicy",
    "ValueFunction",
    "bc_pretrain",
    "compute_advantages",
    "dapg_gradient",
    "demos_from_expert",
    "scripted_expert_action",
    "train",
]

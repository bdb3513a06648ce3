"""Hyperspectral/multispectral image fusion by coupled nonnegative block-term
decomposition, with unconstrained and two-stage baselines, a degradation
simulator, recovery-condition checks, fusion metrics, and a native tensor
file format."""

from . import degradation, errors, metrics, model, solver, tensor_ops
from .degradation import *  # noqa: F403
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model import *  # noqa: F403
from .solver import *  # noqa: F403
from .tensor_ops import *  # noqa: F403
from .tensorfile import read_tensor, write_tensor

__version__ = "0.1.0"

# each module's public names (its __all__) and the two tensor-file functions
__all__ = sorted(
    [name for m in (degradation, errors, metrics, model, solver, tensor_ops) for name in m.__all__]
    + ["read_tensor", "write_tensor"]
)

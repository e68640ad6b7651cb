"""Iterative multi-view-stereo depth estimation on a numpy autodiff core."""

from .errors import (ConfigError, ContractError, EmptySampleError,
                     FileFormatError, MvsError, NumericalError,
                     SceneGenerationError, ShapeError, TrainStepError)
from .estimator import DepthEstimator
from .fusion import FuseConfig, PointCloud, fuse, read_ply, write_ply
from .geometry import CameraView
from .scenes import Scene, SynthSpec, load_scene, save_scene, synth_scene
from .tensor import Tensor
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CameraView", "ConfigError", "ContractError", "DepthEstimator",
    "EmptySampleError", "FileFormatError", "FuseConfig", "MvsError",
    "NumericalError", "PointCloud", "Scene", "SceneGenerationError", "ShapeError",
    "SynthSpec", "Tensor", "TrainConfig", "TrainStepError", "fuse",
    "load_scene", "read_ply", "save_scene", "synth_scene", "train",
    "write_ply", "__version__",
]

"""Sparse depth video completion via ray-wise attention over plane-sweep
cost volumes, with a self-contained float64 autodiff engine and a synthetic
RGB-D scene generator for exact end-to-end testing."""

from .autodiff import ParameterStore, Tensor, gradient_check, no_grad
from .config import OptimizerConfig, PlanesConfig, RunConfig, parse_config
from .cost_volume import CostVolume, RGBImage, SparseDepthMap
from .geometry import CameraIntrinsics, DepthPlaneSet, Pose, make_planes
from .regression import DepthMap, ProbabilityVolume

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "CostVolume",
    "DepthMap",
    "DepthPlaneSet",
    "OptimizerConfig",
    "ParameterStore",
    "PlanesConfig",
    "Pose",
    "ProbabilityVolume",
    "RGBImage",
    "RunConfig",
    "SparseDepthMap",
    "Tensor",
    "gradient_check",
    "make_planes",
    "no_grad",
    "parse_config",
]

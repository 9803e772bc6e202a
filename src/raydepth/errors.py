"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Tensor or image extents do not line up."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NumericError(ValueError):
    """A computation produced or received non-finite values."""


class BehindCameraError(ValueError):
    """A point with non-positive camera-space depth cannot be projected."""


class EmptySupervisionError(ValueError):
    """A loss was requested but no valid ground-truth pixels exist."""


class EmptyEvaluationError(ValueError):
    """No pixels are eligible for metric computation."""


class TrainingError(RuntimeError):
    """The optimizer or training loop hit an inconsistent state."""


class ConfigError(ValueError):
    """A config or scene file is malformed or violates an invariant."""


class CheckpointError(RuntimeError):
    """A checkpoint file cannot be read or does not match the model."""

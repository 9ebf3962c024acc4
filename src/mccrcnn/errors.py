"""Shared exception hierarchy.

The CLI maps ConfigError to exit code 2 and every other PipelineError
(data or processing failure) to exit code 3.  Errors that more than one
module raises live here; an error with one raiser lives beside it.
"""


class PipelineError(Exception):
    """Base class for data and processing failures."""


class ConfigError(PipelineError):
    """Invalid or incomplete configuration."""


class EmptyTrainSet(PipelineError):
    """A model was given no training samples."""


class DivergedLoss(PipelineError):
    """A training objective became non-finite."""


class ShapeMismatch(PipelineError):
    """Two matrices, or a matrix and a model, disagree in shape."""

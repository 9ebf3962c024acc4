"""Shared exception hierarchy.

The CLI maps ConfigError to exit code 2 and every other PipelineError
(data or processing failure) to exit code 3.
"""


class PipelineError(Exception):
    """Base class for data and processing failures."""


class ConfigError(PipelineError):
    """Invalid or incomplete configuration."""


class EmptyTrainSet(PipelineError):
    """A model was given no training samples."""

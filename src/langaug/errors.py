"""Shared exception types.

The CLI maps these onto exit codes: ConfigError, and MemoryError or numpy's
"array is too big" ValueError (configured sizes beyond the memory available)
-> 2; a missing or unusable upstream artifact, such as an ebm sidecar no model
can be built from (MissingArtifactError and its subclass StaleArtifactError,
DimensionError, TensorFormatError, TensorPayloadError) -> 3; NumericError
(including its subclass DivergenceError) -> 4; LeakageError (held-out domain
leaked into a training fold) -> 5.
"""


class ConfigError(ValueError):
    """Invalid configuration, argument, or precondition violation (``model``: in a stack of
    models, the one it concerns)."""

    model = None


class DimensionError(ValueError):
    """Shape or length mismatch between arrays that must agree."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite or out-of-domain value (``model``: in a stack of
    models, the one that did; its message is the one that model raises alone)."""

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


class DivergenceError(NumericError):
    """A sampling chain or training loop left the finite range (``chains``: the batch rows that
    did, counted within ``model``'s batch in a stack)."""

    def __init__(self, message, step=None, chains=None, model=None):
        super().__init__(message, model)
        self.step = step
        self.chains = chains


class LeakageError(RuntimeError):
    """Augmented data tagged with a held-out domain reached a training fold."""


class MissingArtifactError(FileNotFoundError):
    """An upstream output required by a pipeline stage does not exist."""


class StaleArtifactError(MissingArtifactError):
    """An upstream output this run would not have made: its sidecar records other inputs."""


class TensorFormatError(ValueError):
    """Tensor file header is malformed (magic, version, or dtype byte), a sidecar is not a
    JSON object, lacks a key its loader reads or is unusable (an ebm sidecar whose arch has
    an unknown, missing or invalid field), or a tensor does not fit its sidecar."""


class TensorPayloadError(IOError):
    """Tensor file payload does not match its declared dimensions."""

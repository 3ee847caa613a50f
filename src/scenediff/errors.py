"""Shared exception types."""


class SceneFormatError(Exception):
    """Raised when a scene file is malformed (bad magic, version, payload)."""


class CheckpointError(Exception):
    """Raised on checkpoint format or config mismatches."""


class ConfigError(ValueError):
    """Raised on malformed run configuration (bad key, duplicate, bad value)."""


class TrainingDiverged(Exception):
    """Raised when a training loss becomes non-finite."""

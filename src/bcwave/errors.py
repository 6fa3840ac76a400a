"""Exception types shared across the pipeline."""


class BCWaveError(Exception):
    """Base class for all package errors."""


class DomainError(BCWaveError):
    """An argument lies outside the mathematical domain of an operation."""


class GridMismatchError(BCWaveError):
    """Operands live on incompatible grids."""


class ConfigError(BCWaveError):
    """Invalid configuration (bad key, bad value, grid too coarse, ...)."""


class ReconstructionError(BCWaveError):
    """A potential reconstruction has too little usable data."""


class IngestionError(BCWaveError):
    """External data file (CSV) is malformed or inconsistent."""


class SpectralError(BCWaveError):
    """The finite-interval eigensolve produced no usable eigendata."""

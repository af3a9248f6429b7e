"""Exception hierarchy shared across the package."""


class TiledFlowError(Exception):
    """Base class for all errors raised by tiledflow."""


class DimensionError(TiledFlowError):
    """Shapes or lattice dimensions are inconsistent."""


class BoundsError(TiledFlowError):
    """A coordinate falls outside its lattice."""


class CoordinateSetError(TiledFlowError, ValueError):
    """A coordinate set repeats a coordinate, or is empty where points
    are required."""


class ConfigError(TiledFlowError):
    """Invalid configuration (bad parameter combination or config file)."""


class CoverageError(TiledFlowError):
    """A lattice cell is not covered by any patch window."""


class SingularityError(TiledFlowError):
    """A denoising field was evaluated at t = 0."""


class DivergenceError(TiledFlowError):
    """Integration produced a non-finite state.

    Carries the index of the offending step in ``step_index``.
    """

    def __init__(self, message: str, step_index: int = -1):
        super().__init__(message)
        self.step_index = step_index


class OptimizationError(TiledFlowError):
    """Non-finite loss or gradient during vector optimization."""


class ParseError(TiledFlowError):
    """Malformed binary or text input.

    ``offset`` is the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class ProtocolError(TiledFlowError):
    """Wire-protocol violation (bad magic, oversize payload, bad frame)."""


class IncompleteFrameError(ProtocolError):
    """A frame is truncated; more bytes are needed. Resumable."""


class ProviderError(TiledFlowError):
    """A vector-field provider failed to produce an evaluation.

    ``item`` is the index of the failing item of a batch, when known.
    """

    def __init__(self, message: str, item: int | None = None):
        super().__init__(message)
        self.item = item

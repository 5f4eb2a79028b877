"""Error taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
anything else surfaces as a plain ValueError at construction time.
"""


class AttractorLabError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteState(AttractorLabError):
    """A state, trajectory sample, or model evaluation produced NaN/Inf."""


class StepMismatch(AttractorLabError):
    """A requested span is not an integer number of grid steps."""


class OffGrid(AttractorLabError):
    """A time does not lie on the sample grid of a trajectory/ensemble."""


class EmptyWindow(AttractorLabError):
    """A time window [a, b] contains no grid samples (a > b)."""


class ModelMismatch(AttractorLabError):
    """Operands belong to different models and cannot be compared."""


class EmptySet(AttractorLabError):
    """A point-cloud set operand is empty."""


class EmptyEnsemble(AttractorLabError):
    """An ensemble with no member trajectories."""


class HorizonTooShort(AttractorLabError):
    """A trajectory grid does not extend far enough for the requested windows."""


class GridMismatch(AttractorLabError):
    """Two trajectory grids disagree in step, phase, or length."""


class GridTooCoarse(AttractorLabError):
    """An interval contains no interior grid point at the current step."""


class InsufficientSamples(AttractorLabError):
    """Fewer samples available than the operation requires."""


class HypothesisFail(AttractorLabError):
    """A theorem check could not establish its hypotheses numerically.

    Deliberately distinct from a check returning False: False means the
    conclusion failed while the hypotheses held.
    """


class ConfigInvalid(AttractorLabError):
    """An experiment config failed fail-closed validation."""

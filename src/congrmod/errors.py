"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine-level failures."""


class NonIntegralEntry(EngineError):
    """A matrix or polynomial coefficient has negative valuation."""


class DimensionMismatch(EngineError):
    pass


class NotADirectSum(EngineError):
    pass


class DegenerateLattice(EngineError):
    pass


class RankMismatch(EngineError):
    pass


class TorsionQuotient(EngineError):
    pass


class DegreeBoundExceeded(EngineError):
    """A degree or coefficient-valuation cap was hit; never truncate silently."""


class AugmentationNotWellDefined(EngineError):
    pass


class NonLocalAugmentation(EngineError):
    pass


class InconsistentCodim(EngineError):
    """Declared codimension contradicts computed ranks or the eta test."""


class NotFiniteOverBase(EngineError):
    pass


class StrategyInapplicable(EngineError):
    pass


class VerificationFailed(EngineError):
    pass


class ResolutionTooShort(EngineError):
    pass


class InternalInvariantViolation(EngineError):
    """A theorem the engine relies on failed on computed data: a bug or an
    insufficient search bound."""


class KappaNotInjective(InternalInvariantViolation):
    pass


class NotRegularAtAugmentation(EngineError):
    """Both rank tests say the algebra is not regular at the augmentation."""


class NotASurjection(EngineError):
    pass


class NotSameCodim(EngineError):
    pass


class InSymbolicSquare(EngineError):
    pass


class ZeroDivisorSuspected(EngineError):
    pass


class ProductLiftFailed(EngineError):
    pass


class InputError(EngineError):
    """Problem-file parse or validation failure."""

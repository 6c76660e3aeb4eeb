"""Exception types raised by the scoring pipeline.

AsasError is the one expected failure: the command-line layer maps each to
an exit code, and a tuning trial that raises one is a failed trial. Any
other exception is a bug and propagates.
"""


class AsasError(Exception):
    """Base class for all pipeline errors."""


# dataset ingestion and external artifact files
class MalformedRow(AsasError):
    """Input does not parse: not UTF-8, a row of the wrong width, or a value not a finite number."""


class NonIntegerScore(AsasError):
    """A score cell is present but not an integer."""


class DuplicateId(AsasError):
    """A response id appears more than once where ids must be unique."""


class EmptyInput(AsasError):
    """An operation that needs at least one record received none."""


class MissingSecondRead(AsasError):
    """A dev response lacks the second human score."""


class HeaderMismatch(AsasError):
    """An external file's header line does not match the expected format."""


class RowLengthMismatch(AsasError):
    """A member or embedding row holds another number of values than line 1 declares."""


class UnknownResponseId(AsasError):
    """An external file references a response id not in the corpus."""


class DimMismatch(AsasError):
    """A vector's dimension disagrees with the declared dimension."""


# metrics
class LengthMismatch(AsasError):
    """Paired label vectors have different lengths."""


class LabelOutOfRange(AsasError):
    """A label falls outside [0, k)."""


class DegenerateDistribution(AsasError):
    """Pooled standard deviation is zero while the means differ."""


# feature extraction
class InsufficientClasses(AsasError):
    """Key-term selection needs at least two score classes."""


class RankDeficient(AsasError):
    """The term matrix has no usable spectrum (empty vocabulary)."""


class MissingEmbedding(AsasError):
    """A response id has no row in the embedding table."""


# trainable heads
class NonFiniteGradient(AsasError):
    """An optimizer step received a NaN or infinite gradient."""


class NonFiniteLoss(AsasError):
    """Training produced a NaN or infinite loss."""


class SingleClass(AsasError):
    """Classifier fitting needs labels from at least two classes."""


class TooFewRows(AsasError):
    """Classifier fitting needs at least one row per class."""


# hyperparameter search
class AllTrialsFailed(AsasError):
    """Every objective evaluation in a study failed."""


# ensembling
class CoverageGap(AsasError):
    """A member matrix is missing a required response id."""


class KMismatch(AsasError):
    """Ensemble members disagree on class count or prompt."""


class TooFewCandidates(AsasError):
    """Subset selection asked for more members than exist."""


class MissingPromptPlaceholder(AsasError):
    """Several prompts share a member path that has no {prompt} placeholder."""

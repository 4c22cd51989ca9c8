"""Exception taxonomy and CLI exit codes."""


class RanOptError(Exception):
    """Base class for all package errors."""


class ValidationError(RanOptError):
    """A command, config field, or argument violates its stated bounds."""


class NotFoundError(ValidationError):
    """A referenced entity (cell, subject, file) does not exist."""


class InvalidBounds(ValidationError):
    """An optimization grid is empty or inverted."""


class InsufficientHistory(ValidationError):
    """A model lacks the history it needs: the traffic forecaster two full
    seasonal periods, a target cell's radio map enough measurements."""


class PipelineError(RanOptError):
    """Ingestion / warehouse failures."""


class UnknownSource(PipelineError):
    pass


class FileRejected(PipelineError):
    pass


class SubjectNotFound(PipelineError):
    pass


class AlreadyExists(PipelineError):
    pass


class SchemaError(PipelineError):
    pass


class NumericalFailure(RanOptError):
    """Non-finite loss, failed factorization, or diverging training."""


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PIPELINE = 2
EXIT_NUMERICAL = 3


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, NumericalFailure):
        return EXIT_NUMERICAL
    if isinstance(exc, PipelineError):
        return EXIT_PIPELINE
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    return EXIT_VALIDATION

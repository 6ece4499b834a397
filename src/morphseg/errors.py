"""Exception types shared across the package."""


class MorphsegError(Exception):
    """Base class for all errors raised by morphseg."""


class NotTrainedError(MorphsegError):
    """A model was asked about a word it has never seen."""


class UnsegmentableError(MorphsegError):
    """No sequence of known morphs concatenates to the word."""

"""Answer questions over a triple store by ranking template logical
forms with unigram pair features of the query and each candidate's
canonical utterance."""

__version__ = "0.1.0"

__all__ = ["ConfigError", "TensorparseError", "__version__"]


class TensorparseError(Exception):
    """Base of every error that bad input files or settings raise."""


class ConfigError(TensorparseError, ValueError):
    """A setting outside its allowed range."""

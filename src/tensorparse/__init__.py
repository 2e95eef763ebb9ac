"""Answer questions over a triple store by ranking template logical
forms with unigram pair features of the query and each candidate's
canonical utterance."""

__version__ = "0.1.0"

__all__ = ["__version__"]

"""Shared exception types."""


class HypothesisError(ValueError):
    """A computation's hypotheses fail for the given input; the message names
    the unmet hypothesis and, when there is one, its witness."""

"""Objective specification shared by every benchmark and application."""

from dataclasses import dataclass

import numpy as np

from .core import Bounds


@dataclass
class ObjectiveSpec:
    """A benchmark or application objective.

    ``evaluate`` returns f(x - shift) as a Python float (the evaluator may
    return any real scalar), so a base form with its optimum at the origin
    attains it at x = shift.  ``optimum`` is the actual minimizer in original
    coordinates when known; it differs from the shift for a base form whose
    minimum is off the origin.  ``rng`` is only consumed by noisy evaluators.
    """

    id: str
    dimension: int
    bounds: Bounds
    evaluator: object  # callable (z, rng) -> real scalar on shifted coordinates
    shift: np.ndarray = None
    known_fmin: float | None = None
    tabulated_fmin: float | None = None
    optimum: np.ndarray | None = None
    noisy: bool = False
    notes: str = ""

    def __post_init__(self):
        if self.shift is None:
            self.shift = np.zeros(self.dimension)
        self.shift = np.asarray(self.shift, dtype=float)
        if self.shift.size != self.dimension:
            raise ValueError(f"{self.id}: shift length != dimension")
        if self.bounds.dimension != self.dimension:
            raise ValueError(f"{self.id}: bounds dimension != dimension")

    def evaluate(self, x, rng=None):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.id}: expected vector of length {self.dimension}, got shape {x.shape}"
            )
        return float(self.evaluator(x - self.shift, rng))

    def evaluate_many(self, X, rngs):
        """``evaluate`` of every row of the (n, d) batch ``X``, as a list of n floats.

        ``rngs`` holds one generator (or None) per row.  An evaluator with a
        ``batch`` kernel written over the last axis evaluates all rows in
        one call; any other evaluates row by row in row order, row k
        drawing from ``rngs[k]``.  Either way each value has the bits
        ``evaluate`` gives for its row.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension or len(rngs) != X.shape[0]:
            raise ValueError(
                f"{self.id}: expected an (n, {self.dimension}) batch and n generators, "
                f"got shape {X.shape} and {len(rngs)} generators"
            )
        Z = X - self.shift
        batch = getattr(self.evaluator, "batch", None)
        if batch is not None:
            return batch(Z).tolist()
        return [float(self.evaluator(z, rng)) for z, rng in zip(Z, rngs)]


def over_last_axis(kernel):
    """Mark ``kernel`` as written over the last axis: it maps one vector to
    its value and an (n, d) batch to its n values, with the same bits per row."""
    kernel.over_last_axis = True
    return kernel


def deterministic(kernel):
    """Wrap an rng-free kernel, z -> real scalar, into the (z, rng) evaluator signature.

    A kernel marked by ``over_last_axis`` is also kept as the evaluator's
    ``batch``, which ``ObjectiveSpec.evaluate_many`` calls on a whole batch.
    """

    def evaluator(z, rng):
        return kernel(z)

    evaluator.batch = kernel if getattr(kernel, "over_last_axis", False) else None
    return evaluator


def box(dimension, low, high) -> Bounds:
    return Bounds(np.full(dimension, float(low)), np.full(dimension, float(high)))

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


def deterministic(kernel):
    """Wrap an rng-free kernel, z -> real scalar, into the (z, rng) evaluator signature."""

    def evaluator(z, rng):
        return kernel(z)

    return evaluator


def box(dimension, low, high) -> Bounds:
    return Bounds(np.full(dimension, float(low)), np.full(dimension, float(high)))

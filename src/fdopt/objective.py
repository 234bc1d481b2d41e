"""Objective specification shared by every benchmark and application."""

from dataclasses import dataclass

import numpy as np

from .core import Bounds, _require_choice


@dataclass(eq=False)
class ObjectiveSpec:
    """A benchmark or application objective.

    ``dimension`` is ``bounds.dimension``, set once when the spec is built.
    ``noisy`` decides how the evaluator is called.  A spec that is not
    noisy holds a plain ``z -> real scalar`` evaluator whose value depends
    on the bits of z alone; a noisy one holds ``(z, rng) -> real scalar``
    and draws its noise from ``rng``.  ``evaluate`` returns f(x - shift) as
    a Python float (the evaluator may return any real scalar), so a base
    form with its optimum at the origin attains it at x = shift.
    ``optimum`` is the actual minimizer in original coordinates when known,
    kept, like ``shift``, as a float vector of length ``dimension``; it
    differs from the shift for a base form whose minimum is off the
    origin.  Specs compare by identity, since they hold a callable.
    """

    id: str
    bounds: Bounds
    evaluator: object  # callable on shifted coordinates: z, or (z, rng) when noisy
    shift: np.ndarray = None
    known_fmin: float | None = None
    tabulated_fmin: float | None = None
    optimum: np.ndarray | None = None
    noisy: bool = False
    notes: str = ""

    def __post_init__(self):
        if not isinstance(self.bounds, Bounds):
            raise ValueError(f"{self.id}: bounds must be a Bounds, got {self.bounds!r}")
        self.dimension = self.bounds.dimension
        if self.shift is None:
            self.shift = np.zeros(self.dimension)
        for name in ("shift", "optimum"):
            vector = getattr(self, name)
            if vector is not None:
                vector = np.asarray(vector, dtype=float)
                if vector.shape != (self.dimension,):
                    raise ValueError(f"{self.id}: {name} length != dimension or not a vector")
                setattr(self, name, vector)
        _require_choice("noisy", self.noisy, (False, True))

    @property
    def batched(self):
        """Whether ``evaluate_many`` evaluates a batch in one call: the
        evaluator is marked by ``over_last_axis`` and the spec is not noisy."""
        return not self.noisy and getattr(self.evaluator, "over_last_axis", False)

    def evaluate(self, x, rng=None):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.id}: expected vector of length {self.dimension}, got shape {x.shape}"
            )
        z = x - self.shift
        return float(self.evaluator(z, rng) if self.noisy else self.evaluator(z))

    def evaluate_many(self, X, rngs, memo=None):
        """``evaluate`` of every row of the (n, d) batch ``X``, as a list of n floats.

        ``rngs`` holds one generator (or None) per row.  A noisy evaluator
        evaluates row by row in row order, row k drawing from ``rngs[k]``;
        a ``batched`` spec evaluates all rows in one call.
        Either way each value has the bits ``evaluate`` gives for its row.

        Any other evaluator, neither noisy nor batched, has a value that is
        a function of the shifted row's bytes alone, so a repeated row is
        evaluated once.  ``memo`` is a pair of dicts, (this iteration's, the
        last one's), keyed by those bytes: a row found in either dict is not
        evaluated again, and every row's value is kept in the first.
        Without a memo a fresh pair serves this batch alone.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension or len(rngs) != X.shape[0]:
            raise ValueError(
                f"{self.id}: expected an (n, {self.dimension}) batch and n generators, "
                f"got shape {X.shape} and {len(rngs)} generators"
            )
        Z = X - self.shift
        evaluator = self.evaluator
        if self.batched:
            return evaluator(Z).tolist()
        if self.noisy:
            return [float(evaluator(z, rng)) for z, rng in zip(Z, rngs)]
        this, last = ({}, {}) if memo is None else memo
        values = []
        for z in Z:
            key = z.tobytes()
            value = this.get(key, last.get(key))
            if value is None:
                value = float(evaluator(z))
            this[key] = value
            values.append(value)
        return values


def over_last_axis(kernel):
    """Mark ``kernel`` as written over the last axis: it maps one vector to
    its value and an (n, d) batch to its n values.

    The mark is a contract that lets a caller evaluate rows no run needs.
    The kernel draws nothing and keeps no state, and a row's bits do not
    depend on the batch: its size, its other rows or its order.  So the
    lockstep engine may pass it a candidate that no run takes, such as the
    second try of a run that accepted its first, and every run keeps its
    bits and its draws.
    """
    kernel.over_last_axis = True
    return kernel


def box(dimension, low, high) -> Bounds:
    return Bounds(np.full(dimension, float(low)), np.full(dimension, float(high)))

"""Classical benchmark suite TF1-TF19.

Seven unimodal functions, six multimodal functions and six composite
functions, each 10-dimensional with the tabulated box and shift vector.
Shifted evaluation is f(x - shift).  Two tabulated oddities are kept
verbatim and flagged in ``notes``: the TF6 shift (-750) lies outside its
box, and TF8 uses the squared-coordinate sine kernel, whose tabulated
minimum (-418.9829) disagrees with the run-time floor actually reachable;
the run-time floor is stored as ``known_fmin`` and the tabulated one as
``tabulated_fmin``.
"""

from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveSpec, box, deterministic, over_last_axis

DIM = 10

# -- basic kernels -----------------------------------------------------------


@over_last_axis
def sphere(z):
    return (z * z).sum(axis=-1)


def abs_sum_prod(z):
    a = np.abs(z)
    return np.sum(a) + np.prod(a)


def cumulative_sq(z):
    c = np.cumsum(z)
    return np.sum(c * c)


def max_abs(z):
    return np.max(np.abs(z))


def rosenbrock(z):
    return np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (z[:-1] - 1.0) ** 2)


def rounded_sphere(z):
    return np.sum(np.floor(z + 0.5) ** 2)


def quartic(z):
    i = np.arange(1, z.size + 1)
    return np.sum(i * z**4)


def quartic_noise(z, rng):
    if rng is None:
        raise ValueError("a noisy objective needs a generator: pass rng")
    return quartic(z) + rng.random()


def schwefel_sq_sin(z):
    return np.sum(-(z**2) * np.sin(np.sqrt(np.abs(z))))


@over_last_axis
def rastrigin(z):
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=-1)


def ackley(z):
    n = z.size
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(z * z) / n))
        - np.exp(np.sum(np.cos(2.0 * np.pi * z)) / n)
        + 20.0
        + np.e
    )


def griewank(z):
    i = np.arange(1, z.size + 1)
    return np.sum(z * z) / 4000.0 - np.prod(np.cos(z / np.sqrt(i))) + 1.0


def _penalty(z, a):
    over = np.where(z > a, 100.0 * (z - a) ** 4.0, 0.0)
    under = np.where(z < -a, 100.0 * (-z - a) ** 4.0, 0.0)
    return np.sum(over + under)


def penalized1(z):
    n = z.size
    y = 1.0 + (z + 1.0) / 4.0
    core = (
        10.0 * np.sin(np.pi * y[0]) ** 2
        + np.sum((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2))
        + (y[-1] - 1.0) ** 2
    )
    return np.pi / n * core + _penalty(z, 10.0)


def penalized2(z):
    core = (
        np.sin(3.0 * np.pi * z[0]) ** 2
        + np.sum((z[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * z[1:]) ** 2))
        + (z[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * z[-1]) ** 2)
    )
    return 0.1 * core + _penalty(z, 5.0)


# the standard Weierstrass terms a = 0.5, b = 3, k = 0..20
_WEIERSTRASS_AK = 0.5 ** np.arange(21)
_WEIERSTRASS_BK = 3.0 ** np.arange(21)
_WEIERSTRASS_OFFSET = np.sum(_WEIERSTRASS_AK * np.cos(np.pi * _WEIERSTRASS_BK))


def weierstrass(z):
    total = np.sum(_WEIERSTRASS_AK * np.cos(2.0 * np.pi * np.outer(z + 0.5, _WEIERSTRASS_BK)))
    return total - z.size * _WEIERSTRASS_OFFSET


# -- composite machinery -----------------------------------------------------

COMPOSITE_RANGE = 5.0
# component values are rescaled to this common magnitude before mixing
COMPOSITE_SCALE = 2000.0


@dataclass
class CompositeSpec:
    """Weighted composition of ten basic functions (CEC2005 style)."""

    components: list  # 10 callables z -> real scalar
    sigmas: np.ndarray
    lambdas: np.ndarray
    component_optima: np.ndarray  # (10, dim)
    biases: np.ndarray

    def __post_init__(self):
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.component_optima = np.asarray(self.component_optima, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if len(self.components) != 10:
            raise ValueError("a composite needs exactly 10 components")
        if np.any(self.sigmas <= 0) or np.any(self.lambdas <= 0):
            raise ValueError("sigmas and lambdas must be positive")
        d = self.component_optima.shape[1]
        peak = np.full(d, COMPOSITE_RANGE)
        self.fmax = np.array(
            [abs(f(peak / lam)) for f, lam in zip(self.components, self.lambdas)]
        )


def composite_evaluate(spec, x):
    """Evaluate a composite function at ``x`` (10-dimensional)."""
    x = np.asarray(x, dtype=float)
    d = spec.component_optima.shape[1]
    if x.shape != (d,):
        raise ValueError(f"expected vector of length {d}, got shape {x.shape}")
    deltas = x - spec.component_optima
    sq = np.einsum("ij,ij->i", deltas, deltas)
    w = np.exp(-sq / (2.0 * d * spec.sigmas**2))
    wmax = w.max()
    if wmax == 0.0:
        # all weights underflowed; fall back to the nearest component
        w = (sq == sq.min()).astype(float)
    else:
        adjusted = w * (1.0 - wmax**10)
        w = np.where(w == wmax, w, adjusted)
    w = w / w.sum()
    value = 0.0
    for i, f in enumerate(spec.components):
        if w[i] == 0.0:
            continue
        fi = COMPOSITE_SCALE * f(deltas[i] / spec.lambdas[i]) / spec.fmax[i]
        value += w[i] * (fi + spec.biases[i])
    return value


def _composite_spec(index, components, sigmas, lambdas):
    # deterministic stand-in for the CEC2005 data files: first optimum at
    # the origin, the rest drawn uniformly inside the box
    rng = np.random.default_rng(1000 + index)
    optima = rng.uniform(-COMPOSITE_RANGE, COMPOSITE_RANGE, size=(10, DIM))
    optima[0] = 0.0
    return CompositeSpec(components, sigmas, lambdas, optima, biases=np.zeros(10))


def composite_specs():
    """The six Table-style composites TF14-TF19, keyed by identifier."""
    mixed17 = [ackley, ackley, rastrigin, rastrigin, weierstrass, weierstrass,
               griewank, griewank, sphere, sphere]
    mixed18 = [rastrigin, rastrigin, weierstrass, weierstrass, griewank, griewank,
               ackley, ackley, sphere, sphere]
    lambdas18 = [1 / 5, 1 / 5, 5 / 0.5, 5 / 0.5, 5 / 100, 5 / 100, 5 / 32, 5 / 32, 5 / 100, 5 / 100]
    # TF19 is TF18 with sigmas and lambdas both scaled by 0.1, 0.2, ..., 1.0
    ramp = np.arange(1, 11) / 10.0
    return {
        "TF14": _composite_spec(14, [sphere] * 10, np.ones(10), np.full(10, 5.0 / 100.0)),
        "TF15": _composite_spec(15, [griewank] * 10, np.ones(10), np.full(10, 5.0 / 100.0)),
        "TF16": _composite_spec(16, [griewank] * 10, np.ones(10), np.ones(10)),
        "TF17": _composite_spec(
            17, mixed17, np.ones(10),
            [5 / 32, 5 / 32, 1, 1, 5 / 0.5, 5 / 0.5, 5 / 100, 5 / 100, 5 / 100, 5 / 100],
        ),
        "TF18": _composite_spec(18, mixed18, np.ones(10), lambdas18),
        "TF19": _composite_spec(19, mixed18, ramp, ramp * np.array(lambdas18)),
    }


# -- catalog -----------------------------------------------------------------


def _spec(fid, kernel, low, high, shift, optimum_offset=0.0, noisy=False, **kw):
    """A 10-dimensional spec; ``shift`` is a scalar or a full vector, and a
    noisy kernel takes ``(z, rng)`` and is the evaluator itself."""
    shift = np.full(DIM, shift, dtype=float)
    kw.setdefault("optimum", shift + optimum_offset)
    kw.setdefault("known_fmin", 0.0)
    return ObjectiveSpec(
        id=fid,
        dimension=DIM,
        bounds=box(DIM, low, high),
        evaluator=kernel if noisy else deterministic(kernel),
        shift=shift,
        noisy=noisy,
        **kw,
    )


def catalog():
    """All 19 classical objective specs."""
    return [
        _spec("TF1", sphere, -100, 100, -30),
        _spec("TF2", abs_sum_prod, -10, 10, -3),
        _spec("TF3", cumulative_sq, -100, 100, -30),
        _spec("TF4", max_abs, -100, 100, -30),
        _spec("TF5", rosenbrock, -30, 30, -15, optimum_offset=1.0),
        _spec("TF6", rounded_sphere, -100, 100, -750,
              notes="tabulated shift lies outside the box; kept verbatim"),
        _spec("TF7", quartic_noise, -1.28, 1.28, -0.25, noisy=True),
        _spec("TF8", schwefel_sq_sin, -500, 500, -300,
              known_fmin=-2917375.29380209, tabulated_fmin=-418.9829, optimum=None,
              notes="squared-coordinate sine kernel as tabulated"),
        _spec("TF9", rastrigin, -5.12, 5.12, -2),
        _spec("TF10", ackley, -32, 32, 0),
        _spec("TF11", griewank, -600, 600, -400),
        _spec("TF12", penalized1, -50, 50, [-30.0] + [30.0] * 9, optimum_offset=-1.0,
              notes="base minimum sits at -1 per coordinate, so the minimizer is shift - 1"),
        _spec("TF13", penalized2, -50, 50, -100, optimum_offset=1.0,
              notes="tabulated shift lies outside the box; kept verbatim"),
    ] + [
        _spec(fid, lambda z, c=comp: composite_evaluate(c, z), -COMPOSITE_RANGE, COMPOSITE_RANGE, 0)
        for fid, comp in composite_specs().items()
    ]

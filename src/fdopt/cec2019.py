"""CEC-C06 2019 "100-Digit Challenge" functions, raw forms.

CEC01-CEC03 keep their native dimensions; CEC04-CEC10 are 10-dimensional
over [-100, 100].  All ten are implemented unshifted and unrotated.  The
competition's tabulated f_min of 1 (a bias added by the official scoring
code) is deliberately not hard-coded; ``known_fmin`` records the raw floor
where one is analytically established.
"""

import functools

import numpy as np

from .objective import ObjectiveSpec, box
from .classical import rastrigin, griewank, weierstrass, ackley


@functools.cache
def _chebyshev_points(n):
    """The sample grid of dimension ``n`` with the two endpoints after it, read-only,
    and the bound T_{n-1}(1.2); both depend on ``n`` only, so they are built once."""
    # T_{n-1}(1.2) via the Chebyshev recurrence from (T_{-1}, T_0) = (1.2, 1.0)
    a, b = 1.2, 1.0
    for _ in range(n - 1):
        a, b = b, 2.4 * b - a
    y = np.append(np.linspace(-1.0, 1.0, 32 * n + 1), (-1.2, 1.2))
    y.flags.writeable = False
    return y, b


def chebyshev(z):
    """Storn's Chebyshev polynomial fitting problem (d = 9)."""
    n = z.size
    y, upper = _chebyshev_points(n)
    # one Horner pass over the sample grid and the two endpoints after it
    p = np.full(y.size, z[0])
    for j in range(1, n):
        p = y * p + z[j]
    grid = p[:-2]
    outside = np.abs(grid) > 1.0
    total = np.sum((1.0 - np.abs(grid[outside])) ** 2)
    for end in p[-2:]:
        if end < upper:
            total += end * end
    return total


def inverse_hilbert(z):
    """Inverse Hilbert matrix problem (d = 16, i.e. a 4x4 candidate inverse)."""
    b = int(round(np.sqrt(z.size)))
    H = 1.0 / (np.add.outer(np.arange(b), np.arange(b)) + 1.0)
    X = z.reshape(b, b)
    return np.sum(np.abs(H @ X - np.eye(b)))


def lennard_jones(z):
    """Minimum-energy cluster of z.size/3 atoms (d = 18: six atoms)."""
    atoms = z.reshape(-1, 3)
    # every pair i < j in row-major order, added one at a time: np.sum and
    # builtin sum (compensated from Python 3.12) would round differently
    i, j = np.triu_indices(atoms.shape[0], 1)
    total = 0.0
    for u in np.sum((atoms[j] - atoms[i]) ** 2, axis=1) ** 3:
        total += (1.0 / u - 2.0) / u if u > 1e-10 else 1e20
    return total


def modified_schwefel(z):
    n = z.size
    y = z + 420.9687462275036
    g = np.empty(n)
    for i, v in enumerate(y):
        if abs(v) <= 500.0:
            g[i] = v * np.sin(np.sqrt(abs(v)))
        else:
            # fold back inside from the edge that v crossed
            edge, w = (500.0, 500.0 - v % 500.0) if v > 0.0 else (-500.0, abs(v) % 500.0 - 500.0)
            g[i] = w * np.sin(np.sqrt(abs(w))) - (v - edge) ** 2 / (10000.0 * n)
    return 418.9829 * n - np.sum(g)


def expanded_schaffer_f6(z):
    y = np.roll(z, -1)
    s = z * z + y * y
    return np.sum(0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2)


def happy_cat(z):
    n = z.size
    s2 = float(np.sum(z * z))
    s1 = float(np.sum(z))
    return abs(s2 - n) ** 0.25 + (0.5 * s2 + s1) / n + 0.5


_FUNCTIONS = {
    "CEC01": (chebyshev, 9, -8192, 8192, None),
    "CEC02": (inverse_hilbert, 16, -16384, 16384, 0.0),
    "CEC03": (lennard_jones, 18, -4, 4, None),
    "CEC04": (rastrigin, 10, -100, 100, 0.0),
    "CEC05": (griewank, 10, -100, 100, 0.0),
    "CEC06": (weierstrass, 10, -100, 100, 0.0),
    "CEC07": (modified_schwefel, 10, -100, 100, None),
    "CEC08": (expanded_schaffer_f6, 10, -100, 100, 0.0),
    "CEC09": (happy_cat, 10, -100, 100, 0.0),
    "CEC10": (ackley, 10, -100, 100, 0.0),
}


def cec_catalog():
    """All 10 CEC-2019 objective specs."""
    specs = []
    for fid, (kernel, dim, low, high, fmin) in _FUNCTIONS.items():
        specs.append(
            ObjectiveSpec(
                id=fid,
                bounds=box(dim, low, high),
                evaluator=kernel,
                known_fmin=fmin,
                tabulated_fmin=1.0,
            )
        )
    return specs


_SPECS = {spec.id: spec for spec in cec_catalog()}


def cec_evaluate(fid, x):
    """Evaluate one CEC function by identifier."""
    if fid not in _SPECS:
        raise KeyError(f"unknown CEC function {fid!r}")
    return _SPECS[fid].evaluate(x)

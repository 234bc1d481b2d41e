"""Tests for the CEC-2019 suite, each function checked against an
independently coded scalar oracle."""

import math

import numpy as np
import pytest

from fdopt import cec2019
from fdopt.cec2019 import cec_catalog, cec_evaluate

SPECS = {spec.id: spec for spec in cec_catalog()}


def test_catalog_contract():
    assert len(SPECS) == 10
    assert SPECS["CEC01"].dimension == 9
    assert SPECS["CEC01"].bounds.lower[0] == -8192
    assert SPECS["CEC02"].dimension == 16
    assert SPECS["CEC02"].bounds.upper[0] == 16384
    assert SPECS["CEC03"].dimension == 18
    assert SPECS["CEC03"].bounds.lower[0] == -4 and SPECS["CEC03"].bounds.upper[0] == 4
    for i in range(4, 11):
        spec = SPECS[f"CEC{i:02d}"]
        assert spec.dimension == 10
        assert spec.bounds.lower[0] == -100 and spec.bounds.upper[0] == 100


def test_dimension_gate():
    with pytest.raises(ValueError):
        cec_evaluate("CEC01", np.zeros(10))
    with pytest.raises(ValueError):
        cec_evaluate("CEC04", np.zeros(9))
    with pytest.raises(KeyError):
        cec_evaluate("CEC99", np.zeros(10))


def test_purity():
    rng = np.random.default_rng(0)
    for fid, spec in SPECS.items():
        x = rng.uniform(spec.bounds.lower, spec.bounds.upper)
        assert cec_evaluate(fid, x) == cec_evaluate(fid, x)


# -- scalar oracles ----------------------------------------------------------


def oracle_chebyshev(z):
    n = len(z)
    # T_{n-1}(1.2) by explicit recurrence
    t0, t1 = 1.0, 1.2
    for _ in range(n - 2):
        t0, t1 = t1, 2.0 * 1.2 * t1 - t0
    upper = t1
    m = 32 * n
    total = 0.0
    for k in range(m + 1):
        y = -1.0 + 2.0 * k / m
        p = 0.0
        for c in z:
            p = p * y + c
        if abs(p) > 1.0:
            total += (1.0 - abs(p)) ** 2
    for endpoint in (-1.2, 1.2):
        p = 0.0
        for c in z:
            p = p * endpoint + c
        if p < upper:
            total += p * p
    return total


def oracle_inverse_hilbert(z):
    b = int(round(math.sqrt(len(z))))
    total = 0.0
    for i in range(b):
        for j in range(b):
            acc = 0.0
            for k in range(b):
                acc += (1.0 / (i + k + 1)) * z[k * b + j]
            acc -= 1.0 if i == j else 0.0
            total += abs(acc)
    return total


def oracle_lennard_jones(z):
    atoms = [z[3 * i : 3 * i + 3] for i in range(len(z) // 3)]
    total = 0.0
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            d2 = sum((atoms[i][k] - atoms[j][k]) ** 2 for k in range(3))
            u = d2**3
            total += (1.0 / u - 2.0) / u if u > 1e-10 else 1e20
    return total


def oracle_rastrigin(z):
    return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in z)


def oracle_griewank(z):
    s = sum(v * v for v in z) / 4000.0
    p = 1.0
    for i, v in enumerate(z, start=1):
        p *= math.cos(v / math.sqrt(i))
    return s - p + 1.0


def oracle_weierstrass(z):
    a, b, kmax = 0.5, 3.0, 20
    total = 0.0
    for v in z:
        for k in range(kmax + 1):
            total += a**k * math.cos(2.0 * math.pi * b**k * (v + 0.5))
    offset = sum(a**k * math.cos(math.pi * b**k) for k in range(kmax + 1))
    return total - len(z) * offset


def oracle_modified_schwefel(z):
    n = len(z)
    total = 0.0
    for v in z:
        y = v + 420.9687462275036
        if abs(y) <= 500.0:
            g = y * math.sin(math.sqrt(abs(y)))
        elif y > 500.0:
            w = 500.0 - y % 500.0
            g = w * math.sin(math.sqrt(abs(w))) - (y - 500.0) ** 2 / (10000.0 * n)
        else:
            w = abs(y) % 500.0 - 500.0
            g = w * math.sin(math.sqrt(abs(w))) - (y + 500.0) ** 2 / (10000.0 * n)
        total += g
    return 418.9829 * n - total


def oracle_schaffer(z):
    n = len(z)
    total = 0.0
    for i in range(n):
        x, y = z[i], z[(i + 1) % n]
        s = x * x + y * y
        total += 0.5 + (math.sin(math.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2
    return total


def oracle_happy_cat(z):
    n = len(z)
    s2 = sum(v * v for v in z)
    s1 = sum(z)
    return abs(s2 - n) ** 0.25 + (0.5 * s2 + s1) / n + 0.5


def oracle_ackley(z):
    n = len(z)
    s = sum(v * v for v in z)
    c = sum(math.cos(2.0 * math.pi * v) for v in z)
    return -20.0 * math.exp(-0.2 * math.sqrt(s / n)) - math.exp(c / n) + 20.0 + math.e


ORACLES = {
    "CEC01": oracle_chebyshev,
    "CEC02": oracle_inverse_hilbert,
    "CEC03": oracle_lennard_jones,
    "CEC04": oracle_rastrigin,
    "CEC05": oracle_griewank,
    "CEC06": oracle_weierstrass,
    "CEC07": oracle_modified_schwefel,
    "CEC08": oracle_schaffer,
    "CEC09": oracle_happy_cat,
    "CEC10": oracle_ackley,
}


@pytest.mark.parametrize("fid", sorted(SPECS))
def test_dual_implementation(fid):
    spec = SPECS[fid]
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.uniform(spec.bounds.lower, spec.bounds.upper)
        ours = cec_evaluate(fid, x)
        theirs = ORACLES[fid](list(x))
        assert ours == pytest.approx(theirs, abs=1e-10, rel=1e-10), fid


def test_known_floor_points():
    assert cec_evaluate("CEC04", np.zeros(10)) == 0.0
    assert cec_evaluate("CEC05", np.zeros(10)) == 0.0
    assert cec_evaluate("CEC06", np.zeros(10)) == pytest.approx(0.0, abs=1e-10)
    assert cec_evaluate("CEC08", np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
    assert cec_evaluate("CEC09", -np.ones(10)) == pytest.approx(0.0, abs=1e-12)
    assert cec_evaluate("CEC10", np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
    assert cec_evaluate("CEC02", np.array(
        [[4.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    ).ravel()) >= 0.0


def test_random_points_never_below_floor():
    rng = np.random.default_rng(7)
    floors = {
        "CEC04": 0.0,
        "CEC05": 0.0,
        "CEC06": 0.0,
        "CEC07": -1e-6,
        "CEC08": 0.0,
        "CEC09": -1e-9,
        "CEC10": 0.0,
    }
    for fid, floor in floors.items():
        spec = SPECS[fid]
        points = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(2000, spec.dimension))
        for x in points:
            assert cec_evaluate(fid, x) >= floor, fid


def test_inverse_hilbert_exact_inverse_is_zero():
    # the true inverse of the 4x4 Hilbert matrix has integer entries
    H = 1.0 / (np.add.outer(np.arange(4), np.arange(4)) + 1.0)
    X = np.linalg.inv(H)
    assert cec2019.inverse_hilbert(X.ravel()) == pytest.approx(0.0, abs=1e-8)


def test_chebyshev_builds_its_grid_once_per_dimension():
    y, upper = cec2019._chebyshev_points(9)
    assert cec2019._chebyshev_points(9)[0] is y
    assert not y.flags.writeable
    assert y.size == 32 * 9 + 1 + 2 and y[-2:].tolist() == [-1.2, 1.2]
    assert upper == pytest.approx(math.cosh(8 * math.acosh(1.2)), rel=1e-12)

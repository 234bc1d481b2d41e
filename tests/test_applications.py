"""Tests for the antenna and evacuation objectives."""

import math

import numpy as np
import pytest

from fdopt import applications as apps
from fdopt.applications import (
    antenna_fitness,
    antenna_objective,
    array_factor,
    build_scenario,
    evac_distance,
    evac_fitness,
    evac_objective,
    evac_time,
    is_feasible,
    load_scenario,
    perimeter_point,
    save_scenario,
    spacing_violation,
)
from fdopt.core import IFDO, RunConfig, run

UNIFORM_LAYOUT = [0.25, 0.75, 1.25, 1.75]
FEASIBLE_LAYOUT = [0.713, 1.595, 0.433, 0.130]
INFEASIBLE_LAYOUT = [0.701, 1.552, 0.402, 0.103]


# -- antenna -----------------------------------------------------------------


def test_array_factor_broadside_peak():
    assert array_factor(90.0, UNIFORM_LAYOUT) == pytest.approx(5.0, abs=1e-12)
    assert 20.0 * math.log10(array_factor(90.0, UNIFORM_LAYOUT)) == pytest.approx(
        13.97940008672, abs=1e-9
    )


def test_array_factor_term_by_term_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        x = sorted(rng.uniform(0.125, 2.0, 4))
        theta = rng.uniform(0.0, 180.0)
        u = math.cos(math.radians(theta)) - math.cos(math.radians(90.0))
        expected = sum(math.cos(u * 2.0 * math.pi * xi) for xi in x)
        expected += math.cos(u * 2.0 * math.pi * 2.25)
        assert array_factor(theta, x) == pytest.approx(expected, abs=1e-12)


def test_array_factor_even_about_broadside():
    for delta in (1.0, 7.5, 33.0, 80.0):
        left = array_factor(90.0 - delta, UNIFORM_LAYOUT)
        right = array_factor(90.0 + delta, UNIFORM_LAYOUT)
        assert left == pytest.approx(right, abs=1e-9)


def test_reference_layout_feasibility():
    assert is_feasible(FEASIBLE_LAYOUT)
    assert not is_feasible(INFEASIBLE_LAYOUT)  # 0.103 < 0.125


def test_penalty_agrees_with_feasibility_checker():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(0.0, 2.5, 4)
        fitness = antenna_fitness(x)
        if is_feasible(x):
            assert fitness < apps.PENALTY_OFFSET
        else:
            assert fitness >= apps.PENALTY_OFFSET


def test_spacing_violation_components():
    assert spacing_violation(UNIFORM_LAYOUT) == 0.0
    # 2.1 is within 0.25 of the fixed 2.25 element
    assert spacing_violation([0.25, 0.75, 1.25, 2.1]) > 0.0
    assert spacing_violation([0.1, 0.75, 1.25, 1.75]) > 0.0


def test_antenna_fitness_dual_oracle():
    # maximum of 20 log10 |AF| over the sidelobe region, angle by angle
    masked = apps.THETA_GRID[apps.SIDELOBE_MASK]
    expected = max(
        20.0 * math.log10(max(abs(array_factor(t, UNIFORM_LAYOUT)), 1e-300)) for t in masked
    )
    assert antenna_fitness(UNIFORM_LAYOUT) == pytest.approx(expected, abs=1e-9)


def _reference_spacing_violation(candidate):
    """The constraint in numpy array form, one ``np.sum`` per group."""
    x = np.asarray(candidate, dtype=float)
    total = 0.0
    total += float(np.sum(np.maximum(0.0, apps.MIN_POSITION - x)))
    total += float(np.sum(np.maximum(0.0, x - apps.MAX_POSITION)))
    elements = np.append(x, apps.FIXED_ELEMENT)
    for i in range(elements.size - 1):
        gaps = np.abs(elements[i + 1 :] - elements[i])
        total += float(np.sum(np.maximum(0.0, apps.MIN_SPACING - gaps)))
    return total


def _reference_antenna_fitness(candidate, violation):
    """The fitness with the sidelobe angles and every cosine recomputed per call,
    given the candidate's ``_reference_spacing_violation``."""
    if violation > 0.0:
        return apps.PENALTY_WEIGHT * violation + apps.PENALTY_OFFSET
    cos_t = np.cos(np.radians(apps.THETA_GRID))
    u = (cos_t - np.cos(np.radians(apps.STEERING_ANGLE_DEG)))[apps.SIDELOBE_MASK]
    x = np.asarray(candidate, dtype=float)
    af = np.sum(np.cos(np.outer(u, 2.0 * np.pi * x)), axis=1) + np.cos(
        u * 2.0 * np.pi * apps.FIXED_ELEMENT
    )
    return float(np.max(20.0 * np.log10(np.maximum(np.abs(af), 1e-300))))


def _oracle_candidates():
    """12,000 layouts around the box, 12,000 sorted in-box layouts (many
    feasible) shuffled, and special values."""
    rng = np.random.default_rng(20)
    around = rng.uniform(-0.5, 2.75, size=(12_000, 4))
    in_box = np.sort(rng.uniform(0.125, 2.0, size=(12_000, 4)), axis=1)
    in_box = rng.permuted(in_box, axis=1)
    nan, inf = np.nan, np.inf
    special = [
        UNIFORM_LAYOUT,
        FEASIBLE_LAYOUT,
        INFEASIBLE_LAYOUT,
        [nan, 0.75, 1.25, 1.75],
        [0.25, 0.75, 1.25, nan],
        [nan] * 4,
        [inf, 0.75, 1.25, 1.75],
        [0.25, -inf, 1.25, 1.75],
        [inf, -inf, inf, -inf],
        [-0.0, 0.75, 1.25, 1.75],
    ]
    return np.vstack([around, in_box, special])


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


def test_spacing_and_fitness_bit_identical_to_array_form():
    candidates = _oracle_candidates()
    assert len(candidates) >= 20_000
    with np.errstate(invalid="ignore"):
        expected_violation = [_reference_spacing_violation(c) for c in candidates]
        expected_fitness = [
            _reference_antenna_fitness(c, v) for c, v in zip(candidates, expected_violation)
        ]
        violation = [spacing_violation(c) for c in candidates]
        fitness = [antenna_fitness(c) for c in candidates]
    # enough feasible layouts to exercise the array factor, not only the penalty
    assert np.count_nonzero(np.array(violation) == 0.0) > 1_000
    np.testing.assert_array_equal(_bits(violation), _bits(expected_violation))
    np.testing.assert_array_equal(_bits(fitness), _bits(expected_fitness))
    assert math.isnan(spacing_violation([np.nan, 0.75, 1.25, 1.75]))


def test_antenna_objective_spec():
    spec = antenna_objective()
    assert spec.id == "ANTENNA"
    assert spec.dimension == 4
    assert spec.bounds.lower[0] == 0.125 and spec.bounds.upper[0] == 2.0


def test_antenna_run_preserves_optimizer_invariants():
    spec = antenna_objective()
    record = run(RunConfig(population=10, iterations=30, mode=IFDO, seed=3), spec)
    assert np.all(np.diff(record.trace) <= 0.0)
    assert np.all(record.best_position >= 0.125) and np.all(record.best_position <= 2.0)


# -- evacuation --------------------------------------------------------------


def test_evac_distance():
    assert evac_distance((0, 0), (3, 4)) == 5.0
    assert evac_distance((2, 2), (2, 2)) == 0.0
    assert evac_distance((1, 1), (4, 5)) == 5.0


def test_evac_time_formulas():
    assert evac_time(5.0, 1.2, "paper") == pytest.approx(3.0, abs=1e-12)
    assert evac_time(0.0, 0.9, "paper") == 0.0
    assert evac_time(0.0, 0.9, "physical") == 0.0
    assert evac_time(5.0, 1.25, "physical") == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        evac_time(5.0, 0.0, "paper")
    with pytest.raises(ValueError):
        evac_time(5.0, 1.0, "nope")


def test_perimeter_point_walk():
    w, h = 10.0, 4.0
    np.testing.assert_allclose(perimeter_point(0.0, w, h), [0.0, 0.0])
    np.testing.assert_allclose(perimeter_point(3.0, w, h), [3.0, 0.0])
    np.testing.assert_allclose(perimeter_point(w, w, h), [10.0, 0.0])
    np.testing.assert_allclose(perimeter_point(w + 2.0, w, h), [10.0, 2.0])
    np.testing.assert_allclose(perimeter_point(w + h + 4.0, w, h), [6.0, 4.0])
    np.testing.assert_allclose(perimeter_point(2 * w + h + 1.0, w, h), [0.0, 3.0])
    # wraps around
    np.testing.assert_allclose(perimeter_point(2 * (w + h) + 3.0, w, h), [3.0, 0.0])


def test_evac_fitness_zero_at_exit():
    scenario = apps.EvacScenario(10.0, 10.0, np.array([[5.0, 0.0]]), np.array([1.0]))
    assert evac_fitness(5.0, scenario) == 0.0


def test_evac_fitness_symmetric_pair():
    scenario = apps.EvacScenario(
        10.0, 10.0, np.array([[3.0, 2.0], [7.0, 2.0]]), np.array([1.1, 1.1])
    )
    fitness = evac_fitness(5.0, scenario)
    single = evac_time(evac_distance((3.0, 2.0), (5.0, 0.0)), 1.1, "paper")
    assert fitness == pytest.approx(single, abs=1e-12)


@pytest.mark.parametrize("formula", ["paper", "physical"])
def test_evac_fitness_bit_identical_to_time_formula(formula):
    width = height = 50.0
    scenario = build_scenario(width, height, 200, seed=5, time_formula=formula)
    exits = np.random.default_rng(6).uniform(0.0, scenario.perimeter, 1_000)
    fitness = [evac_fitness(s, scenario) for s in exits]
    expected = [
        float(np.mean(evac_time(
            evac_distance(perimeter_point(s, width, height), scenario.positions),
            scenario.desired_speeds,
            formula,
        )))
        for s in exits
    ]
    np.testing.assert_array_equal(_bits(fitness), _bits(expected))


def test_evac_fitness_continuity():
    scenario = build_scenario(50.0, 50.0, 20, seed=0)
    eps = 1e-6
    for s in (5.0, 60.0, 110.0, 160.0):
        a = evac_fitness(s, scenario)
        b = evac_fitness(s + eps, scenario)
        assert abs(a - b) < 1e-4


def test_build_scenario_contract():
    scenario = build_scenario(50.0, 50.0, 200, seed=4)
    assert scenario.positions.shape == (200, 2)
    assert np.all(scenario.positions >= 0.0)
    assert np.all(scenario.positions[:, 0] <= 50.0)
    assert np.all(scenario.positions[:, 1] <= 50.0)
    assert np.all(scenario.desired_speeds >= 0.6)
    assert np.all(scenario.desired_speeds <= 1.4)
    again = build_scenario(50.0, 50.0, 200, seed=4)
    np.testing.assert_array_equal(scenario.positions, again.positions)
    np.testing.assert_array_equal(scenario.desired_speeds, again.desired_speeds)
    single = build_scenario(10.0, 5.0, 1, seed=0)
    assert single.positions.shape == (1, 2)
    with pytest.raises(ValueError):
        build_scenario(10.0, 5.0, 0, seed=0)


@pytest.mark.parametrize("count", [0, 2.5, True, "3"])
def test_build_scenario_rejects_a_count_that_is_not_a_positive_integer(count):
    with pytest.raises(ValueError, match="count"):
        build_scenario(10.0, 10.0, count, 0)


@pytest.mark.parametrize(
    "wrong, match",
    [
        (dict(seed=1.5), "seed"),
        (dict(seed="x"), "seed"),
        (dict(seed=True), "seed"),
        (dict(seed=-1), "seed"),
        (dict(width="10"), "area"),
        (dict(width=None), "area"),
        (dict(height=True), "area"),
        (dict(height=np.bool_(True)), "area"),
    ],
    ids=["float-seed", "str-seed", "bool-seed", "negative-seed", "str-width", "none-width",
         "bool-height", "numpy-bool-height"],
)
def test_build_scenario_rejects_wrong_typed_arguments(wrong, match):
    args = dict(width=10.0, height=10.0, count=3, seed=0) | wrong
    with pytest.raises(ValueError, match=match):
        build_scenario(**args)


@pytest.mark.parametrize("width", ["10", None, True, [10.0]])
def test_scenario_rejects_an_area_side_that_is_not_a_real(width):
    with pytest.raises(ValueError, match="area"):
        apps.EvacScenario(width, 10.0, [[1.0, 2.0]], [1.0])


def test_scenario_accepts_numpy_numbers():
    scenario = build_scenario(np.float64(10.0), np.float32(5.0), np.int64(3), np.int64(2))
    assert scenario.perimeter == 30.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        apps.EvacScenario(10.0, 10.0, np.array([[5.0, 5.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        apps.EvacScenario(10.0, 10.0, np.array([[15.0, 5.0]]), np.array([1.0]))


@pytest.mark.parametrize(
    "positions, speeds",
    [
        (np.empty((0, 2)), np.empty(0)),
        ([[1.0, 2.0]], [1.0, 1.2]),
        ([[np.nan, 2.0]], [1.0]),
        ([[1.0, 2.0]], [np.inf]),
        ([[1.0, 2.0]], [np.nan]),
        ([1.0, 2.0], [1.0]),
        ([[1.0, 2.0, 3.0]], [1.0]),
        ([[1.0, 2.0]], [[1.0]]),
    ],
    ids=["empty", "extra-speed", "nan-position", "inf-speed", "nan-speed", "1d-positions",
         "three-columns", "2d-speeds"],
)
def test_scenario_rejects_invalid_crowd(positions, speeds):
    with pytest.raises(ValueError):
        apps.EvacScenario(10.0, 10.0, positions, speeds)


@pytest.mark.parametrize("formula", ["nope", "Paper", "", ["paper"]])
def test_scenario_rejects_unknown_time_formula(formula):
    with pytest.raises(ValueError, match="time formula"):
        apps.EvacScenario(10, 10, [[1, 2]], [1], formula)
    with pytest.raises(ValueError, match="time formula"):
        build_scenario(10.0, 10.0, 3, seed=0, time_formula=formula)


def test_scenario_accepts_every_time_formula():
    for formula in apps.TIME_FORMULAS:
        scenario = apps.EvacScenario(10, 10, [[1, 2]], [1], formula)
        assert evac_fitness(0.0, scenario) > 0.0


def test_scenario_round_trip(tmp_path):
    scenario = build_scenario(30.0, 20.0, 25, seed=9)
    path = tmp_path / "scenario.txt"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.width == scenario.width and loaded.height == scenario.height
    np.testing.assert_array_equal(loaded.positions, scenario.positions)
    np.testing.assert_array_equal(loaded.desired_speeds, scenario.desired_speeds)


def test_load_scenario_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nope 1 2\n")
    with pytest.raises(ValueError):
        load_scenario(path)


def test_load_scenario_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_bytes(b"\xff\xfearea 10 10\n1 2 1\n")
    with pytest.raises(ValueError, match="can't decode") as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_scenario_skips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_bytes(b"\xef\xbb\xbfarea 10 10\n1 2 1\n")
    scenario = load_scenario(path)
    assert (scenario.width, scenario.height) == (10.0, 10.0)
    np.testing.assert_array_equal(scenario.positions, [[1.0, 2.0]])
    np.testing.assert_array_equal(scenario.desired_speeds, [1.0])


def test_evac_objective_spec():
    scenario = build_scenario(50.0, 50.0, 10, seed=0)
    spec = evac_objective(scenario)
    assert spec.id == "EVAC"
    assert spec.dimension == 1
    assert spec.bounds.upper[0] == scenario.perimeter
    record = run(RunConfig(population=8, iterations=20, mode=IFDO, seed=1), spec)
    assert np.all(np.diff(record.trace) <= 0.0)

"""Unit tests for the optimizer engine."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdopt import core
from fdopt.core import (
    FDO,
    IFDO,
    Bounds,
    RunConfig,
    SwarmState,
    compute_fitness_weight,
    compute_pace,
    enforce_bounds,
    first_best_iteration,
    init_population,
    levy_random,
    levy_raw,
    neighbor_landscape,
    neighborhood,
    propose_position,
    run,
    run_many,
    step,
    update_weight_factor,
)
from fdopt.objective import ObjectiveSpec, box, over_last_axis
from fdopt.classical import sphere, rastrigin
from fdopt.registry import all_objectives


def sphere_objective(dim, low=-1.0, high=1.0):
    return ObjectiveSpec(id=f"sphere{dim}", bounds=box(dim, low, high), evaluator=sphere)


class FixedUniformRng:
    """Stub generator whose random() always returns the same value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


# -- random step sampler -----------------------------------------------------


def test_levy_random_range():
    rng = np.random.default_rng(0)
    draws = levy_random(rng, size=10_000)
    assert np.all(draws >= -1.0)
    assert np.all(draws <= 1.0)


def test_levy_sign_split_near_half():
    rng = np.random.default_rng(1)
    draws = levy_random(rng, size=100_000)
    positive = np.mean(draws > 0)
    assert 0.48 <= positive <= 0.52


def test_levy_raw_heavier_tailed_than_gaussian():
    # excess kurtosis of the raw draws dwarfs the Gaussian value of 0
    rng = np.random.default_rng(2)
    draws = levy_raw(rng, size=100_000)
    centered = draws - np.mean(draws)
    kurtosis = np.mean(centered**4) / np.mean(centered**2) ** 2
    assert kurtosis > 3.0


# -- draw forms ----------------------------------------------------------------


def test_sign_of_a_standard_normal_pair_is_the_sign_of_the_scalar_mantegna_draw():
    for seed in range(20):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(500):
            u = old.normal(0.0, core.MANTEGNA_SIGMA)
            v = old.normal(0.0, 1.0)
            value = core.LEVY_SCALE * (u / np.abs(v) ** (1.0 / core.LEVY_BETA))
            r_old = min(1.0, max(-1.0, float(value)))
            assert (r_old < 0.0) == (new.standard_normal(2)[0] < 0.0)
        assert old.bit_generator.state == new.bit_generator.state


@pytest.mark.parametrize("wf", [0.0, 0.3, 0.8, 1.0, 1e-300])
def test_scaled_random_equals_uniform_from_zero(wf):
    old, new = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(200):
        assert float(old.uniform(0.0, wf)) == wf * new.random()


def test_scalar_uniforms_equal_one_random_array():
    old, new = np.random.default_rng(12), np.random.default_rng(12)
    for k in (1, 2, 7):
        np.testing.assert_array_equal([old.uniform() for _ in range(k)], new.random(k))
    assert old.bit_generator.state == new.bit_generator.state


def test_enforce_bounds_draws_repairs_in_index_order():
    bounds = Bounds([-100.0, -10.0, -50.0], [100.0, 10.0, 50.0])
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    out = enforce_bounds(np.array([150.0, 0.5, -75.0]), bounds, rng)
    u0, u1 = twin.random(2)
    np.testing.assert_array_equal(out, [100.0 * u0, 0.5, -50.0 * u1])
    assert rng.bit_generator.state == twin.bit_generator.state


# -- fitness weight ----------------------------------------------------------


def test_fitness_weight_ifdo_subtracts_when_above():
    assert compute_fitness_weight(2.0, 4.0, 0.3, IFDO) == pytest.approx(0.2, abs=1e-12)


def test_fitness_weight_ifdo_ignores_when_below():
    assert compute_fitness_weight(2.0, 4.0, 0.6, IFDO) == pytest.approx(0.5, abs=1e-12)


def test_fitness_weight_zero_current():
    assert compute_fitness_weight(2.0, 0.0, 0.3, IFDO) == 0.0
    assert compute_fitness_weight(2.0, 0.0, 0.3, FDO) == 0.0


@pytest.mark.parametrize("mode", core.MODES)
def test_fitness_weight_walks_while_no_scout_has_a_finite_value(mode):
    """inf / inf is NaN; the scout random-walks instead of taking a NaN pace."""
    assert compute_fitness_weight(np.inf, np.inf, 0.3, mode) == 0.0


def test_fitness_weight_fdo_direct():
    assert compute_fitness_weight(3.0, 3.0, 0.0, FDO) == pytest.approx(1.0, abs=1e-12)


def test_fitness_weight_modes_coincide_at_zero_wf():
    for best, current in [(1.0, 2.0), (3.0, 5.0), (0.1, 0.7), (2.0, 2.0)]:
        assert compute_fitness_weight(best, current, 0.0, FDO) == compute_fitness_weight(
            best, current, 0.0, IFDO
        )


# -- pace --------------------------------------------------------------------


def test_pace_toward_best_positive_r():
    pace = compute_pace([4.0, 4.0], [2.0, 2.0], 0.5, 0.3, np.random.default_rng(0))
    np.testing.assert_allclose(pace, [1.0, 1.0], atol=1e-12)


def test_pace_sign_flip_negative_r():
    pace = compute_pace([4.0, 4.0], [2.0, 2.0], 0.5, -0.3, np.random.default_rng(0))
    np.testing.assert_allclose(pace, [-1.0, -1.0], atol=1e-12)


def test_pace_random_walk_zero_position():
    pace = compute_pace([0.0, 0.0], [5.0, 5.0], 0.0, 0.7, np.random.default_rng(0))
    np.testing.assert_allclose(pace, [0.0, 0.0], atol=1e-12)


def test_pace_random_walk_never_reads_best():
    # the fw in {0, 1} branch must not touch the global best argument
    for fw in (0.0, 1.0):
        pace = compute_pace([2.0, -3.0], None, fw, 0.5, np.random.default_rng(3))
        assert pace.shape == (2,)


def test_pace_exact_scaling_in_open_interval():
    x = np.array([1.0, -2.0, 0.5])
    best = np.array([0.0, 1.0, 0.25])
    for fw in (0.2, 0.5, 0.9):
        pace = compute_pace(x, best, fw, 0.1, np.random.default_rng(0))
        np.testing.assert_allclose(pace, (x - best) * fw, atol=1e-12)
        pace = compute_pace(x, best, fw, -0.1, np.random.default_rng(0))
        np.testing.assert_allclose(pace, -(x - best) * fw, atol=1e-12)


# -- neighborhood ------------------------------------------------------------


def test_neighbor_landscape_values():
    assert neighbor_landscape(box(2, -100, 100)) == pytest.approx(200.0 / (2 * np.pi), abs=1e-12)
    assert neighbor_landscape(box(1, 0, 2 * np.pi)) == pytest.approx(1.0, abs=1e-12)
    assert neighbor_landscape(box(1, 0, 10)) == pytest.approx(10.0 / (2 * np.pi), abs=1e-12)


def make_swarm(positions, paces):
    positions = np.asarray(positions, dtype=float)
    paces = np.asarray(paces, dtype=float)
    fitness = np.array([sphere(p) for p in positions])
    best = int(np.argmin(fitness))
    return SwarmState(
        positions=positions,
        paces=paces,
        fitness=fitness,
        global_best_position=positions[best].copy(),
        global_best_fitness=float(fitness[best]),
        weight_factors=np.zeros(len(positions)),
        mode=IFDO,
        rng=np.random.default_rng(0),
    )


def test_neighborhood_single_scout():
    swarm = make_swarm([[0.0, 0.0]], [[0.0, 0.0]])
    ctx = neighborhood(0, swarm, 1.0)
    assert ctx.neighbor_count == 0
    np.testing.assert_array_equal(ctx.alignment, [0.0, 0.0])
    np.testing.assert_array_equal(ctx.cohesion, [0.0, 0.0])


def test_neighborhood_coincident_pair():
    swarm = make_swarm([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [2.0, 4.0]])
    ctx = neighborhood(0, swarm, 0.5)
    assert ctx.neighbor_count == 1
    np.testing.assert_allclose(ctx.alignment, [2.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(ctx.cohesion, [0.0, 0.0], atol=1e-12)


def test_neighborhood_cohesion_mean_minus_self():
    swarm = make_swarm([[0.0], [1.0], [2.0], [3.0]], np.zeros((4, 1)))
    ctx = neighborhood(0, swarm, 10.0)
    assert ctx.neighbor_count == 3
    np.testing.assert_allclose(ctx.cohesion, [2.0], atol=1e-12)


def test_neighborhood_radius_excludes_far_scouts():
    swarm = make_swarm([[0.0], [1.0], [50.0]], np.zeros((3, 1)))
    ctx = neighborhood(0, swarm, 2.0)
    assert ctx.neighbor_count == 1


def test_neighborhood_means_bit_identical_to_numpy_mean():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(400):
        p, d = rng.integers(3, 40), rng.integers(1, 12)
        positions = rng.uniform(-5.0, 5.0, size=(p, d))
        paces = rng.normal(0.0, 2.0, size=(p, d))
        swarm = make_swarm(positions, paces)
        i, nl = int(rng.integers(p)), rng.uniform(2.0, 6.0 * np.sqrt(d))
        mask = np.linalg.norm(positions - positions[i], axis=1) <= nl
        mask[i] = False
        ctx = neighborhood(i, swarm, nl)
        assert ctx.neighbor_count == np.count_nonzero(mask)
        if ctx.neighbor_count == 0:
            continue
        checked += 1
        expected_alignment = paces[mask].mean(axis=0)
        expected_cohesion = positions[mask].mean(axis=0) - positions[i]
        assert ctx.alignment.tobytes() == expected_alignment.tobytes()
        assert ctx.cohesion.tobytes() == expected_cohesion.tobytes()
    assert checked > 300


@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_neighborhood_symmetric_and_excludes_self(p, d, nl, seed):
    positions = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(p, d))
    # one-hot paces turn the alignment into the neighbor indicator over count
    swarm = make_swarm(positions, np.eye(p))
    member = np.zeros((p, p), dtype=bool)
    for i in range(p):
        ctx = neighborhood(i, swarm, nl)
        if ctx.neighbor_count > 0:
            member[i] = ctx.alignment > 0.0
        assert ctx.neighbor_count == np.count_nonzero(member[i])
    assert not member.diagonal().any()
    np.testing.assert_array_equal(member, member.T)


# -- proposal ----------------------------------------------------------------


def test_propose_no_neighbors_degenerates():
    swarm = make_swarm([[1.0, 1.0]], [[0.0, 0.0]])
    ctx = neighborhood(0, swarm, 1.0)
    out = propose_position([1.0, 1.0], np.array([0.5, -0.5]), ctx)
    np.testing.assert_allclose(out, [1.5, 0.5], atol=1e-12)


def test_propose_alignment_over_cohesion():
    ctx = core.NeighborhoodContext(1, np.array([2.0]), np.array([4.0]))
    out = propose_position([0.0], np.array([1.0]), ctx)
    np.testing.assert_allclose(out, [1.5], atol=1e-12)


def test_propose_zero_cohesion_guard():
    ctx = core.NeighborhoodContext(1, np.array([2.0]), np.array([0.0]))
    out = propose_position([0.0], np.array([1.0]), ctx)
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_propose_fdo_ignores_context():
    """FDO passes no context, and the candidate is position + pace."""
    out = propose_position([0.0], np.array([1.0]), None)
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


# -- bounds ------------------------------------------------------------------


def test_enforce_bounds_upper_violation_scaled():
    bounds = box(1, -100, 100)
    out = enforce_bounds(np.array([150.0]), bounds, FixedUniformRng(0.4))
    np.testing.assert_allclose(out, [40.0], atol=1e-12)


def test_enforce_bounds_lower_violation_scaled():
    bounds = box(1, -100, 100)
    out = enforce_bounds(np.array([-150.0]), bounds, FixedUniformRng(0.4))
    np.testing.assert_allclose(out, [-40.0], atol=1e-12)


def test_enforce_bounds_identity_inside():
    bounds = box(3, -1, 1)
    x = np.array([0.2, -0.9, 0.0])
    np.testing.assert_array_equal(enforce_bounds(x, bounds, np.random.default_rng(0)), x)


def test_enforce_bounds_always_feasible():
    # boxes away from zero need the final clamp to stay feasible
    bounds = box(1, 0.125, 2.0)
    rng = np.random.default_rng(5)
    for value in (5.0, -3.0, 0.01, 100.0):
        out = enforce_bounds(np.array([value]), bounds, rng)
        assert bounds.lower[0] <= out[0] <= bounds.upper[0]


def _clamped_repair(out, crossed, above, bounds, rng):
    """The bound repair with its final clamp on every box, as it was before
    ``Bounds.straddles_zero`` let boxes around zero skip it."""
    lb, ub = bounds.lower, bounds.upper
    out[crossed] = np.where(above, ub, lb)[crossed] * rng.random(np.count_nonzero(crossed))
    out.clip(lb, ub, out=out)


def clamped_enforce_bounds(position, bounds, rng):
    out = np.array(position, dtype=float)
    above = out > bounds.upper
    crossed = above | (out < bounds.lower)
    if crossed.any():
        _clamped_repair(out, crossed, above, bounds, rng)
    return out


def assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def box_and_point(draw):
    """A box anywhere on the line (often entirely above or below zero) and a point."""
    d = draw(st.integers(1, 4))
    coords = st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d)
    widths = st.lists(st.floats(1e-3, 1e6), min_size=d, max_size=d)
    lower = np.array(draw(coords))
    bounds = Bounds(lower, lower + np.array(draw(widths)))
    return bounds, 10.0 * np.array(draw(coords))


@given(box_and_point(), st.integers(0, 2**32 - 1))
def test_enforce_bounds_feasible_on_any_box(case, seed):
    bounds, x = case
    lb, ub = bounds.lower, bounds.upper
    out = enforce_bounds(x, bounds, np.random.default_rng(seed))
    # bit for bit the always-clamped repair, also where the clamp is skipped
    assert_same_bits(out, clamped_enforce_bounds(x, bounds, np.random.default_rng(seed)))
    assert np.all((lb <= out) & (out <= ub))
    inside = (lb <= x) & (x <= ub)
    np.testing.assert_array_equal(out[inside], x[inside])
    # the documented repair bias of boxes that do not contain zero
    pinned_low = (x < lb) & (lb > 0)
    pinned_high = (x > ub) & (ub < 0)
    np.testing.assert_array_equal(out[pinned_low], lb[pinned_low])
    np.testing.assert_array_equal(out[pinned_high], ub[pinned_high])


@pytest.mark.parametrize(
    "lower, upper",
    [(-5.12, 5.12), (-1e-3, 1e6), (-5e-324, 5e-324), (0.125, 2.0), (0.0, 10.0),
     (-10.0, -0.0), (-10.0, -1.0)],
)
@pytest.mark.parametrize(
    "make_rng",
    [lambda: np.random.default_rng(7), lambda: FixedUniformRng(0.0),
     lambda: FixedUniformRng(np.nextafter(1.0, 0.0))],
    ids=["generator", "u=0", "u<1"],
)
def test_enforce_bounds_keeps_the_clamped_bits_on_edge_points(lower, upper, make_rng):
    # signed zeros, NaN, infinities, both bounds and the floats just past them;
    # with u = 0 a repair gives +0.0 above the box and -0.0 below it
    points = [-0.0, 0.0, np.nan, np.inf, -np.inf, lower, upper,
              np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf), 3.0 * lower, 3.0 * upper]
    bounds = box(len(points), lower, upper)
    assert bounds.straddles_zero == (lower < 0.0 < upper)
    for x in (np.array(points), np.array(points[::-1])):
        out = enforce_bounds(x, bounds, make_rng())
        assert_same_bits(out, clamped_enforce_bounds(x, bounds, make_rng()))


def test_only_antenna_and_evac_keep_the_clamp():
    objectives = all_objectives()
    assert len(objectives) == 31
    assert sorted(o.id for o in objectives if not o.bounds.straddles_zero) == ["ANTENNA", "EVAC"]


def test_the_clamp_still_pins_repairs_on_boxes_off_zero():
    antenna = next(o for o in all_objectives() if o.id == "ANTENNA").bounds
    x = np.full(antenna.dimension, 1.0)
    x[0] = -3.0
    assert enforce_bounds(x, antenna, np.random.default_rng(3))[0] == 0.125
    out = enforce_bounds(np.array([5.0, -5.0]), box(2, -10.0, -1.0), np.random.default_rng(3))
    assert out[0] == -1.0 and out[1] == -5.0


def test_the_repair_reads_straddles_zero_to_skip_the_clamp():
    bounds = box(1, 0.125, 2.0)
    bounds.straddles_zero = True  # untrue for this box: the unclamped repair shows
    assert enforce_bounds(np.array([-1.0]), bounds, FixedUniformRng(0.5))[0] == 0.0625


@pytest.mark.parametrize("lower, upper", [(0.0, 10.0), (-0.0, 10.0), (-10.0, 0.0), (-10.0, -0.0)])
def test_a_zero_bound_keeps_the_clamp(lower, upper):
    # the clamp, run for the coordinate outside, maps the untouched zero of
    # the other sign onto the zero bound
    bounds = box(2, lower, upper)
    assert not bounds.straddles_zero
    bound, outside = (lower, 11.0) if lower == 0.0 else (upper, -11.0)
    out = enforce_bounds(np.array([-bound, outside]), bounds, np.random.default_rng(0))
    assert np.signbit(out[0]) == np.signbit(bound)


# -- weight factor -----------------------------------------------------------


def test_update_weight_factor_shrinks_on_accept():
    rng = np.random.default_rng(0)
    for _ in range(50):
        new = update_weight_factor(0.8, IFDO, rng)
        assert 0.0 <= new <= 0.8


def test_update_weight_factor_degenerate_zero():
    assert update_weight_factor(0.0, IFDO, np.random.default_rng(0)) == 0.0


def test_update_weight_factor_fdo_unchanged():
    assert update_weight_factor(0.7, FDO, np.random.default_rng(0)) == 0.7


def test_step_keeps_weight_factor_of_a_scout_rejected_twice():
    """In IFDO scout scope only an accepted move shrinks a scout's weight factor.

    Scout 0 sits on the optimum, so neither its fresh pace nor its saved
    one can improve on it; the other scouts improve and shrink theirs.
    """
    shift = np.array([0.5, -0.25])
    objective = ObjectiveSpec(
        id="shifted", bounds=box(2, -1, 1), evaluator=sphere, shift=shift,
    )
    swarm = init_population(RunConfig(population=6, mode=IFDO, seed=5), objective)
    swarm.positions[0] = shift
    swarm.fitness[0] = 0.0
    swarm.global_best_position, swarm.global_best_fitness = shift.copy(), 0.0
    evaluated = []
    evaluate = objective.evaluate

    def spy(x, rng=None):
        evaluated.append(np.array(x))
        return evaluate(x, rng)

    objective.evaluate = spy
    before = swarm.weight_factors.copy()
    step(swarm, objective)
    # scout 0 goes first: a random-walk try away from the optimum, then
    # its saved zero pace, which proposes the optimum itself
    assert len(evaluated) >= 2 and np.any(evaluated[0] != shift)
    np.testing.assert_array_equal(evaluated[1], shift)
    np.testing.assert_array_equal(swarm.positions[0], shift)
    assert swarm.weight_factors[0] == before[0]
    assert np.any(swarm.weight_factors[1:] < before[1:])


# -- population and config ---------------------------------------------------


def test_init_population_single_scout():
    objective = sphere_objective(1, 0.0, 1.0)
    swarm = init_population(RunConfig(population=1, seed=3), objective)
    assert 0.0 <= swarm.positions[0, 0] <= 1.0
    np.testing.assert_array_equal(swarm.paces, [[0.0]])


def test_init_population_in_box():
    objective = sphere_objective(10, -100.0, 100.0)
    swarm = init_population(RunConfig(population=30, seed=1), objective)
    assert np.all(swarm.positions >= -100.0)
    assert np.all(swarm.positions <= 100.0)


def test_init_population_is_reproducible():
    objective = sphere_objective(4)
    a = init_population(RunConfig(population=5, seed=9), objective)
    b = init_population(RunConfig(population=5, seed=9), objective)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.weight_factors, b.weight_factors)
    assert a.global_best_fitness == b.global_best_fitness


def test_init_population_wf_by_mode():
    objective = sphere_objective(2)
    ifdo = init_population(RunConfig(population=8, mode=IFDO, seed=0), objective)
    assert np.all(ifdo.weight_factors >= 0.0) and np.all(ifdo.weight_factors <= 1.0)
    assert len(set(ifdo.weight_factors)) > 1
    fdo = init_population(RunConfig(population=8, mode=FDO, fdo_wf=1.0, seed=0), objective)
    np.testing.assert_array_equal(fdo.weight_factors, np.ones(8))
    swarm_scope = init_population(
        RunConfig(population=8, mode=IFDO, seed=0, wf_scope="swarm"), objective
    )
    assert len(set(swarm_scope.weight_factors)) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(population=0)
    with pytest.raises(ValueError):
        RunConfig(iterations=0)
    with pytest.raises(ValueError):
        RunConfig(mode="nope")
    with pytest.raises(ValueError):
        RunConfig(fdo_wf=1.5)
    with pytest.raises(ValueError):
        RunConfig(wf_scope="global")


@pytest.mark.parametrize("flag", ["no", 0.5, None, 2])
def test_config_rejects_record_positions_that_is_not_a_bool(flag):
    with pytest.raises(ValueError, match="record_positions"):
        RunConfig(population=3, iterations=2, record_positions=flag)


@pytest.mark.parametrize("flag", [np.bool_(True), np.bool_(False), 0, 1])
def test_config_accepts_bool_like_record_positions(flag):
    record = run(RunConfig(population=3, iterations=2, record_positions=flag), sphere_objective(2))
    assert (record.positions is not None) == bool(flag)


def test_bounds_keep_read_only_copies():
    lower, upper = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    bounds = Bounds(lower, upper)
    for array in (bounds.lower, bounds.upper):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert lower.flags.writeable and upper.flags.writeable
    lower[0], upper[0] = 5.0, 7.0
    assert bounds.lower.tolist() == [-1.0, -2.0] and bounds.upper.tolist() == [1.0, 2.0]
    # straddles_zero is an attribute, not a field: repr and equality read the bounds only
    assert [f.name for f in fields(Bounds)] == ["lower", "upper"]
    assert "straddles_zero" not in repr(bounds)


def test_bounds_compare_by_value():
    square = Bounds([-1, -1], [1, 1])
    assert square == Bounds([-1.0, -1.0], [1.0, 1.0]) and not square != Bounds([-1, -1], [1, 1])
    assert square != Bounds([-1, -1], [1, 2])
    assert square != Bounds([-1, -1, -1], [1, 1, 1])
    assert square != (square.lower, square.upper)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="non-empty vectors"):
        Bounds(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-empty vectors"):
        Bounds([], [])


@pytest.mark.parametrize(
    "lower, upper",
    [([np.nan], [1.0]), ([0.0], [np.nan]), ([-np.inf], [np.inf]), ([0.0], [np.inf]),
     ([-np.inf, 0.0], [1.0, 1.0])],
)
def test_bounds_reject_non_finite(lower, upper):
    with pytest.raises(ValueError, match="finite"):
        Bounds(lower, upper)


@pytest.mark.parametrize(
    "setting",
    [dict(seed=-1), dict(seed=1.5), dict(seed=True), dict(population=2.5),
     dict(population=True), dict(population=np.float64(3.0)), dict(iterations=10.0),
     dict(iterations=np.bool_(True))],
)
def test_config_rejects_non_integer_or_negative_counts(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        RunConfig(**setting)


@pytest.mark.parametrize(
    "wf", ["0", None, [0.0], True, np.bool_(False)], ids=["str", "none", "list", "bool", "np-bool"]
)
def test_config_rejects_fdo_wf_that_is_not_a_real(wf):
    with pytest.raises(ValueError, match="fdo_wf"):
        RunConfig(fdo_wf=wf)


def test_config_accepts_numpy_float_fdo_wf():
    config = RunConfig(population=4, mode=FDO, fdo_wf=np.float32(1.0))
    np.testing.assert_array_equal(init_population(config, sphere_objective(2)).weight_factors, 1.0)


def test_config_accepts_numpy_integers():
    config = RunConfig(population=np.int64(4), iterations=np.int32(3), seed=np.uint32(7))
    expected = run(RunConfig(population=4, iterations=3, seed=7), sphere_objective(2))
    assert run(config, sphere_objective(2)).trace.tobytes() == expected.trace.tobytes()


# -- full iterations ---------------------------------------------------------


def test_step_monotone_global_best():
    objective = sphere_objective(3)
    swarm = init_population(RunConfig(population=10, seed=7), objective)
    for _ in range(20):
        before = swarm.global_best_fitness
        step(swarm, objective)
        assert swarm.global_best_fitness <= before


def test_step_bounds_closure():
    objective = sphere_objective(5, -2.0, 2.0)
    for mode in (FDO, IFDO):
        swarm = init_population(RunConfig(population=8, mode=mode, seed=11), objective)
        for _ in range(30):
            step(swarm, objective)
            assert np.all(swarm.positions >= -2.0)
            assert np.all(swarm.positions <= 2.0)


def test_step_wf_non_increasing():
    objective = sphere_objective(4)
    swarm = init_population(RunConfig(population=10, mode=IFDO, seed=2), objective)
    previous = swarm.weight_factors.copy()
    for _ in range(40):
        step(swarm, objective)
        assert np.all(swarm.weight_factors <= previous + 1e-15)
        assert np.all(swarm.weight_factors >= 0.0)
        previous = swarm.weight_factors.copy()


def test_run_trace_contract():
    objective = sphere_objective(2)
    record = run(RunConfig(population=10, iterations=50, seed=4), objective)
    assert record.trace.shape == (50,)
    assert np.all(np.diff(record.trace) <= 0.0)
    assert record.best_fitness == record.trace[-1]


def test_run_record_reads_its_best_value_from_its_trace():
    record = core.RunRecord(trace=np.array([3.0, 1.0]), best_position=np.zeros(2), wall_time_s=0.0)
    assert record.best_fitness == 1.0 and type(record.best_fitness) is float
    assert "best_fitness" not in {f.name for f in fields(core.RunRecord)}


def test_run_is_reproducible():
    objective = ObjectiveSpec(id="rastrigin2", bounds=box(2, -5.12, 5.12), evaluator=rastrigin)
    a = run(RunConfig(population=12, iterations=40, seed=123), objective)
    b = run(RunConfig(population=12, iterations=40, seed=123), objective)
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.best_position, b.best_position)
    assert a.best_fitness == b.best_fitness


def test_a_plain_function_evaluator_gives_the_bits_of_run():
    """A spec that is not noisy holds a plain z -> real scalar function:
    ``evaluate``, ``evaluate_many`` and ``run_many`` give ``run``'s bits."""
    objective = ObjectiveSpec(
        id="plain", bounds=box(2, -1, 1), shift=[0.25, -0.5],
        evaluator=lambda z: np.abs(z).sum() + z[0] * z[1],
    )
    config = RunConfig(population=6, iterations=25, mode=IFDO, seed=2, record_positions=True)
    alone = [run(replace(config, seed=seed), objective) for seed in (2, 3)]
    for a, b in zip(alone, run_many(config, 2, objective)):
        assert _same_record(a, b)
    for record in alone:
        assert objective.evaluate(record.best_position) == record.best_fitness
        X = record.positions[-1]
        rows = np.array([objective.evaluate(x) for x in X])
        assert np.array(objective.evaluate_many(X, [None] * len(X))).tobytes() == rows.tobytes()


def test_run_records_positions():
    objective = sphere_objective(3)
    record = run(RunConfig(population=6, iterations=15, seed=0, record_positions=True), objective)
    assert record.positions.shape == (15, 6, 3)
    assert np.all(record.positions >= -1.0) and np.all(record.positions <= 1.0)


def test_non_finite_fitness_never_accepted():
    calls = {"n": 0}

    def unstable(z):
        calls["n"] += 1
        return np.nan if calls["n"] % 3 == 0 else sphere(z)

    objective = ObjectiveSpec(id="unstable", bounds=box(2, -1, 1), evaluator=unstable)
    record = run(RunConfig(population=5, iterations=20, seed=6), objective)
    assert np.all(np.isfinite(record.trace))
    assert np.all(np.diff(record.trace) <= 0.0)


def _non_finite_strips(z):
    """NaN, -inf and +inf on three strips of [-1, 1]^2, the sphere elsewhere."""
    if z[0] > 0.5:
        return np.nan
    if z[0] < -0.5:
        return -np.inf
    return np.inf if z[1] > 0.5 else sphere(z)


NON_FINITE_STRIPS = ObjectiveSpec(id="strips", bounds=box(2, -1, 1), evaluator=_non_finite_strips)


def test_init_population_counts_every_non_finite_value_as_inf():
    swarm = init_population(RunConfig(population=40, seed=5), NON_FINITE_STRIPS)
    raw = np.array([NON_FINITE_STRIPS.evaluate(x) for x in swarm.positions])
    assert np.isnan(raw).any() and np.isneginf(raw).any() and np.isposinf(raw).any()
    bad = ~np.isfinite(raw)
    assert np.all(swarm.fitness[bad] == np.inf)
    assert swarm.fitness[~bad].tobytes() == raw[~bad].tobytes()
    assert swarm.global_best_fitness == raw[~bad].min()


@pytest.mark.parametrize("mode", core.MODES)
def test_runs_from_non_finite_initial_values_trace_finite_non_increasing_bests(mode):
    config = RunConfig(population=40, iterations=20, mode=mode, seed=5)
    records = [run(config, NON_FINITE_STRIPS), *run_many(config, 2, NON_FINITE_STRIPS)]
    assert _same_record(records[0], records[1])
    for record in records:
        assert np.all(np.isfinite(record.trace))
        assert np.all(np.diff(record.trace) <= 0.0)


def _island(z):
    """The sphere where every coordinate lies within 0.3 of 0, NaN elsewhere."""
    return sphere(z) if np.abs(z).max() < 0.3 else np.nan


ISLAND = ObjectiveSpec(id="island", bounds=box(2, -1, 1), evaluator=_island)


@pytest.mark.parametrize("mode", core.MODES)
def test_a_swarm_without_a_finite_initial_value_walks_until_it_finds_one(mode):
    """Both scouts start off the island at +inf.  A NaN fitness weight would
    give NaN candidates and leave the swarm where it started for good."""
    config = RunConfig(population=2, iterations=600, mode=mode, seed=0, record_positions=True)
    start = init_population(config, ISLAND)
    assert np.all(start.fitness == np.inf)
    records = [run(config, ISLAND), *run_many(config, 2, ISLAND)]
    assert _same_record(records[0], records[1])
    record = records[0]
    assert np.any(record.positions[-1] != start.positions)
    assert record.trace[0] == np.inf and np.isfinite(record.best_fitness)
    assert np.all(np.abs(record.best_position) < 0.3)


def test_first_best_iteration():
    assert first_best_iteration([5.0, 3.0, 3.0, 1.0, 1.0]) == 4
    assert first_best_iteration([2.0, 2.0]) == 1


# -- properties of whole runs ------------------------------------------------

PROPERTY_OBJECTIVES = {
    "sphere": sphere_objective(3),
    "rastrigin": ObjectiveSpec(id="rastrigin2", bounds=box(2, -5.12, 5.12), evaluator=rastrigin),
    "offset-box": sphere_objective(2, 0.125, 2.0),
}

small_configs = st.builds(
    RunConfig,
    population=st.integers(1, 8),
    iterations=st.integers(1, 20),
    mode=st.sampled_from([FDO, IFDO]),
    fdo_wf=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    wf_scope=st.sampled_from(["scout", "swarm"]),
)
# whole runs take milliseconds; no per-example deadline, so a loaded
# machine cannot turn a slow example into a flaky failure
run_settings = settings(deadline=None)


@run_settings
@given(small_configs, st.sampled_from(sorted(PROPERTY_OBJECTIVES)))
def test_runs_repeat_bit_for_bit_with_non_increasing_trace(config, name):
    objective = PROPERTY_OBJECTIVES[name]
    first, second = run(config, objective), run(config, objective)
    assert first.trace.tobytes() == second.trace.tobytes()
    assert first.best_position.tobytes() == second.best_position.tobytes()
    assert np.all(np.diff(first.trace) <= 0.0)
    assert first.best_fitness == first.trace[-1]


@run_settings
@given(small_configs, st.sampled_from(sorted(PROPERTY_OBJECTIVES)))
def test_ifdo_weight_factors_never_increase(config, name):
    objective = PROPERTY_OBJECTIVES[name]
    swarm = init_population(replace(config, mode=IFDO), objective)
    for _ in range(config.iterations):
        previous = swarm.weight_factors.copy()
        step(swarm, objective)
        assert np.all(swarm.weight_factors <= previous)
        assert np.all(swarm.weight_factors >= 0.0)


@run_settings
@given(small_configs, st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(-1.0, 1.0))
def test_non_finite_values_are_never_accepted(config, bad, threshold):
    """Where the first coordinate exceeds ``threshold`` the objective is non-finite."""

    def poisoned(z):
        return bad if z[0] > threshold else sphere(z)

    objective = ObjectiveSpec(id="poisoned", bounds=box(2, -1, 1), evaluator=poisoned)
    swarm = init_population(config, objective)
    for _ in range(config.iterations):
        before = swarm.positions.copy()
        step(swarm, objective)
        moved = np.any(swarm.positions != before, axis=1)
        assert np.all(swarm.positions[moved, 0] <= threshold)
        assert np.all(np.isfinite(swarm.fitness[moved]))
        assert not np.any(np.isnan(swarm.fitness))
        if np.isfinite(swarm.global_best_fitness):
            assert swarm.global_best_position[0] <= threshold


# -- the lockstep engine -----------------------------------------------------


def _same_record(a, b):
    """Byte-identical trace, best position, best value and recorded positions."""
    positions = (a.positions is None) == (b.positions is None) and (
        a.positions is None or a.positions.tobytes() == b.positions.tobytes()
    )
    return (
        a.trace.tobytes() == b.trace.tobytes()
        and a.best_position.tobytes() == b.best_position.tobytes()
        and a.best_fitness == b.best_fitness
        and positions
    )


def _each_is_run(records, config, objective):
    """Whether record k is ``run`` with seed ``config.seed + k``, bit for bit."""
    return all(_same_record(record, run(replace(config, seed=config.seed + k), objective))
               for k, record in enumerate(records))


@pytest.mark.parametrize("wf_scope", core.WF_SCOPES)
@pytest.mark.parametrize("mode", core.MODES)
@pytest.mark.parametrize("objective", all_objectives(), ids=lambda spec: spec.id)
def test_run_many_equals_run_bit_for_bit(objective, mode, wf_scope):
    config = RunConfig(population=6, iterations=10, mode=mode, wf_scope=wf_scope, seed=3,
                       record_positions=True)
    assert _each_is_run(run_many(config, 3, objective), config, objective)


def test_run_many_sums_one_dimensional_neighborhoods_run_by_run():
    """EVAC (d = 1) with enough neighbors that numpy sums them pairwise: a
    sum over all scouts with non-neighbors filled by -0.0 groups the
    additions differently and changes bits."""
    objective = next(spec for spec in all_objectives() if spec.id == "EVAC")
    config = RunConfig(population=12, iterations=10, mode=IFDO, seed=3)
    assert _each_is_run(run_many(config, 3, objective), config, objective)


def _lifted_sphere(z):
    """1 + the sphere, so a scout at the origin has a fitness weight other than 0."""
    return 1.0 + sphere(z)


def _scout_at_negative_zero(other):
    """Scout 0 at (-0.0, 0.5), or at (-0.0) for d = 1, the global best, beside
    scout 1 at ``other``.

    Seed 4 draws a negative r, so scout 0's fresh pace toward the best is -0.0."""
    positions = np.array([[-0.0, 0.5][: len(other)], other])
    fitness = np.array([_lifted_sphere(x) for x in positions])
    best = int(np.argmin(fitness))
    return SwarmState(positions=positions, paces=np.zeros_like(positions), fitness=fitness,
                      global_best_position=positions[best].copy(),
                      global_best_fitness=float(fitness[best]), weight_factors=np.full(2, 0.5),
                      mode=IFDO, rng=np.random.default_rng(4))


@pytest.mark.parametrize("other_run_neighbor", [[0.9, -0.9], [0.0, 0.45], [0.9]])
def test_run_many_adds_no_neighborhood_term_without_neighbors(other_run_neighbor):
    """Scout 0 has no neighbor, and its candidate is -0.0 + -0.0: adding a
    0.0 term would propose 0.0 where ``step`` proposes -0.0, whether the
    batch's other run has no neighbor either or has one.  With d = 1 no run
    of the batch has a neighbor, and each run's empty neighbor sum is 0.0."""
    seen = []

    def recorder(z):
        seen.append(z.tobytes())
        return _lifted_sphere(z)

    d = len(other_run_neighbor)
    lone = [0.9, -0.9][:d]
    objective = ObjectiveSpec(id="rec", bounds=box(d, -1, 1), evaluator=recorder)
    step(_scout_at_negative_zero(lone), objective)
    alone, seen[:] = list(seen), []
    swarms = [_scout_at_negative_zero(lone), _scout_at_negative_zero(other_run_neighbor)]
    core._Lockstep(swarms, objective).scout(0)
    assert np.frombuffer(alone[0])[0].tobytes() == np.float64(-0.0).tobytes()
    assert seen[0] == alone[0]


def _poisoned(z):
    return np.nan if z[0] > 0.5 else sphere(z)


LOCKSTEP_OBJECTIVES = {
    **PROPERTY_OBJECTIVES,
    "sphere1": sphere_objective(1),
    "poisoned": ObjectiveSpec(id="poisoned", bounds=box(2, -1, 1), evaluator=_poisoned),
}


@run_settings
@given(small_configs, st.sampled_from(sorted(LOCKSTEP_OBJECTIVES)), st.integers(1, 4))
# one scout: every sweep of these runs rolls back at scout 0, the last one
@example(RunConfig(population=1, iterations=20, mode=FDO, seed=0), "sphere", 3)
def test_run_many_equals_run_on_small_swarms(config, name, runs):
    """d = 1, 2 and 3, one to four runs, non-finite values and every setting."""
    objective = LOCKSTEP_OBJECTIVES[name]
    assert _each_is_run(run_many(config, runs, objective), config, objective)


def test_run_many_runs_each_seed_it_is_given():
    """Record k is the run of seed ``config.seed + k``."""
    config = RunConfig(population=6, iterations=10, mode=IFDO, seed=7, record_positions=True)
    records = run_many(config, 3, sphere_objective(2))
    assert len(records) == 3 and _each_is_run(records, config, sphere_objective(2))


def test_run_many_needs_a_seed():
    """``runs`` is a count of at least one."""
    config = RunConfig(population=6, iterations=10, mode=IFDO, seed=7)
    for runs in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match="runs"):
            run_many(config, runs, sphere_objective(2))


def test_run_many_records_are_views_of_one_block_with_a_share_of_the_time():
    config = RunConfig(population=4, iterations=5, record_positions=True)
    records = run_many(config, 3, sphere_objective(2))
    block = records[0].positions.base
    assert block.shape == (3, 5, 4, 2)
    assert all(r.positions.base is block for r in records)
    assert len({r.wall_time_s for r in records}) == 1


def test_run_many_reuses_neighborhood_terms_while_no_run_accepts(monkeypatch):
    """TF9 accepts few moves, so most iterations are sweeps, and a chain of
    sweeps computes every scout's terms once, in one call, for all of its
    quiet stretch; ``scout`` computes a scout's own terms only when some run
    has accepted since the chain was built.  Each scout whose terms are
    computed counts, whichever call computes them."""
    objective = next(spec for spec in all_objectives() if spec.id == "TF9")
    config = RunConfig(population=10, iterations=60, mode=IFDO, seed=3, record_positions=True)
    computed = []
    terms = core._Lockstep.proposal_terms

    def counted(self, first, stop):
        computed.extend(range(first, stop))
        return terms(self, first, stop)

    monkeypatch.setattr(core._Lockstep, "proposal_terms", counted)
    records = run_many(config, 4, objective)
    assert len(computed) < 600  # 10 scouts x 60 iterations computes them 600 times
    assert _each_is_run(records, config, objective)


def _terms_batch(d):
    """A lockstep of three IFDO runs of six scouts in [-1, 1]^d, whose
    neighbor radius is 1/π.  Run 0's scouts lie 0.4 apart in every
    coordinate, so none has a neighbor.  In run 1 scouts 0 and 1 are each other's only
    neighbor and share their first coordinate, so each has a cohesion
    component of 0, below ``COHESION_TOL``; scouts 2 to 5 crowd together.
    Run 2's scouts are uniform in the box."""
    rng = np.random.default_rng(5)
    p = 6
    lone = np.repeat((-1.0 + 0.4 * np.arange(p))[:, None], d, axis=1)
    pair = np.vstack([np.full((2, d), 0.5), -0.5 + rng.uniform(-0.05, 0.05, (4, d))])
    pair[1, 1:] += 0.1
    spread = rng.uniform(-1.0, 1.0, (p, d))
    objective = sphere_objective(d)
    swarms = [SwarmState(positions=x, paces=rng.normal(size=(p, d)),
                         fitness=np.array([sphere(z) for z in x]),
                         global_best_position=x[0].copy(), global_best_fitness=sphere(x[0]),
                         weight_factors=np.full(p, 0.5), mode=IFDO, rng=np.random.default_rng(k))
              for k, x in enumerate((lone, pair, spread))]
    return core._Lockstep(swarms, objective), swarms


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d", [1, 10])
def test_proposal_terms_over_a_stretch_equal_each_scouts_own(d):
    """The terms of every scout, and of scouts 2 .. p - 1, in one call have
    the bits of each scout's own call, and of the ``neighborhood`` that
    ``step`` proposes with; -0.0 for a scout without neighbors."""
    batch, swarms = _terms_batch(d)
    p, nl = 6, batch.nl
    own = [batch.proposal_terms(i, i + 1) for i in range(p)]
    assert all(terms.shape == (3, 1, d) for terms in own)
    contexts = [[neighborhood(i, s, nl) for i in range(p)] for s in swarms]
    assert all(ctx.neighbor_count == 0 for ctx in contexts[0])
    tiny = [ctx for ctx in contexts[1] if ctx.neighbor_count
            and (np.abs(ctx.cohesion) < core.COHESION_TOL).any()]
    assert len(tiny) >= 2
    for k, by_scout in enumerate(contexts):
        for i, ctx in enumerate(by_scout):
            expected = np.full(d, -0.0)
            if ctx.neighbor_count:
                expected = np.zeros(d)
                np.divide(ctx.alignment, ctx.cohesion, out=expected,
                          where=np.abs(ctx.cohesion) >= core.COHESION_TOL)
            assert np.array_equal(_bits(own[i][k, 0]), _bits(expected))
    for first in (0, 2):
        stretch = batch.proposal_terms(first, p)
        assert stretch.shape == (3, p - first, d)
        for j in range(p - first):
            assert np.array_equal(_bits(stretch[:, j]), _bits(own[first + j][:, 0]))


def test_a_held_sweeps_chain_keeps_its_block_and_terms_read_only():
    """The sweeps of a chain, and a scout right after one rolls back, read
    its block and IFDO terms; a write into either would change them for the
    rest of the chain, so both refuse it."""
    objective = _constant(2)
    config = RunConfig(population=4, mode=IFDO)
    batch = core._Lockstep([init_population(replace(config, seed=s), objective)
                            for s in (1, 2)], objective)
    assert batch.sweep() == config.population
    chain = batch.chain
    assert chain.block.shape == (2, 4, 3, 2) and chain.terms.shape == (2, 4, 2)
    for kept in (chain.block, chain.terms, batch._terms(0)):
        with pytest.raises(ValueError, match="read-only"):
            kept += 0.0


def _evaluations_per_scout(objective, config, runs, monkeypatch):
    """Check ``run_many`` against ``run`` bit for bit, and return per scout
    call whether some run's second try (position + saved pace, plus the
    IFDO terms) crosses the box, with the row count of each
    ``evaluate_many`` call the scout call made.  A sweep's call is kept
    apart, so it never counts as a call of the scout before it."""
    log, swept, objective = [], [], replace(objective)
    evaluate_many, scout, sweep = objective.evaluate_many, core._Lockstep.scout, core._Lockstep.sweep
    calls = [swept]  # the list the next evaluate_many call is logged in

    def counted(X, rngs, memo=None):
        calls[0].append(len(X))
        return evaluate_many(X, rngs, memo)

    def logged(self, i):
        second = self.positions[:, i] + self.paces[:, i]
        if self.nl is not None:
            second += self.proposal_terms(i, i + 1)[:, 0]
        lower, upper = objective.bounds.lower, objective.bounds.upper
        log.append((bool(((second < lower) | (second > upper)).any()), []))
        calls[0] = log[-1][1]
        return scout(self, i)

    def logged_sweep(self, first=0):
        calls[0] = swept
        return sweep(self, first)

    objective.evaluate_many = counted
    monkeypatch.setattr(core._Lockstep, "scout", logged)
    monkeypatch.setattr(core._Lockstep, "sweep", logged_sweep)
    records = run_many(config, runs, objective)
    monkeypatch.undo()
    assert _each_is_run(records, config, objective)
    return log


@pytest.mark.parametrize("mode", core.MODES)
def test_run_many_gives_a_batched_kernel_both_tries_in_one_call(mode, monkeypatch):
    """TF1's sphere is written over the last axis: while no second try
    crosses the box, both tries of every run go to one call."""
    objective = next(spec for spec in all_objectives() if spec.id == "TF1")
    config = RunConfig(population=10, iterations=30, mode=mode, seed=3, record_positions=True)
    runs = 4
    log = _evaluations_per_scout(objective, config, runs, monkeypatch)
    inside = [rows for crosses, rows in log if not crosses]
    assert len(inside) > len(log) // 2
    assert all(rows == [2 * runs] for rows in inside)


@pytest.mark.parametrize("mode", core.MODES)
def test_run_many_repairs_crossing_second_tries_after_the_first(mode, monkeypatch):
    """The sphere's minimum lies outside the box [0.5, 1]^2, so saved paces
    overshoot: where a second try crosses, its repair draws only for a run
    that rejected its first try, so the first tries go to a call of their own."""
    objective = sphere_objective(2, low=0.5, high=1.0)
    config = RunConfig(population=6, iterations=20, mode=mode, seed=3, record_positions=True)
    runs = 3
    log = _evaluations_per_scout(objective, config, runs, monkeypatch)
    crossing = [rows for crosses, rows in log if crosses]
    assert len(crossing) > len(log) // 2
    assert all(rows[0] == runs and len(rows) <= 2 for rows in crossing)
    assert any(len(rows) == 2 for rows in crossing)


def _sweeps(objective, config, runs, monkeypatch):
    """Check ``run_many`` against ``run`` bit for bit, with recorded
    positions, and return what it did in order: ("sweep", first) as a sweep
    from scout ``first`` starts and the first scout it leaves to ``scout``
    as it ends, ("scout", i) as scout i starts, and the shifted rows of each
    ``evaluate_many`` call as a list of bytes."""
    events, objective = [], replace(objective)
    evaluate_many, lockstep = objective.evaluate_many, core._Lockstep
    scout, sweep = lockstep.scout, lockstep.sweep

    def counted(X, rngs, memo=None):
        events.append([z.tobytes() for z in np.asarray(X) - objective.shift])
        return evaluate_many(X, rngs, memo)

    def logged_scout(self, i):
        events.append(("scout", i))
        return scout(self, i)

    def logged(self, first=0):
        events.append(("sweep", first))
        events.append(sweep(self, first))
        return events[-1]

    objective.evaluate_many = counted
    monkeypatch.setattr(core._Lockstep, "scout", logged_scout)
    monkeypatch.setattr(core._Lockstep, "sweep", logged)
    config = replace(config, record_positions=True)
    records = run_many(config, runs, objective)
    monkeypatch.undo()
    assert _each_is_run(records, config, objective)
    return events


def _swept_rows(events):
    """Per sweep in ``events``, from ``_sweeps``: the rows it evaluated, and
    what it returned."""
    sweeps = []
    for event in events:
        if isinstance(event, tuple) and event[0] == "sweep":
            sweeps.append(([], None))
        elif isinstance(event, int) and sweeps:
            sweeps[-1] = (sweeps[-1][0], event)
        elif isinstance(event, list) and sweeps and sweeps[-1][1] is None:
            sweeps[-1][0].extend(event)
    return sweeps


def _constant(dim, low=-1.0, high=1.0, batched=False):
    kernel = over_last_axis(lambda z: np.ones(np.shape(z)[:-1])) if batched else lambda z: 1.0
    return ObjectiveSpec("ONE", box(dim, low, high), kernel)


def _run_candidates(objective, config, seed):
    """The shifted candidates ``run`` evaluates for ``seed``, by iteration,
    as bytes, where every scout evaluates both tries, as on a constant."""
    rows, p = [], config.population

    def recording(z):
        rows.append(z.tobytes())
        return objective.evaluator(z)

    run(replace(config, seed=seed), replace(objective, evaluator=recording))
    return [rows[p + 2 * p * t:p + 2 * p * (t + 1)] for t in range(config.iterations)]


@pytest.mark.parametrize(
    "objective, config",
    [
        (_constant(3), RunConfig(mode=FDO)),
        (_constant(3), RunConfig(mode=IFDO)),
        (_constant(3, batched=True), RunConfig(mode=IFDO)),
        (_constant(3), RunConfig(mode=IFDO, wf_scope="swarm")),
        (_constant(3, low=0.5, high=2.0), RunConfig(mode=IFDO)),
        (_constant(3, low=0.5, high=2.0), RunConfig(mode=FDO)),
        (_constant(1), RunConfig(mode=IFDO)),
        (_constant(1), RunConfig(mode=FDO)),
    ],
    ids=["fdo", "ifdo", "ifdo-batched", "swarm-scope", "clamped-ifdo", "clamped-fdo", "1d-ifdo",
         "1d-fdo"],
)
def test_run_many_sweeps_every_iteration_after_the_first_when_nothing_is_accepted(
    objective, config, monkeypatch
):
    """On a constant objective every candidate ties and is rejected, so from
    the second iteration on each iteration is one sweep that holds, and the
    sweeps form one chain.  Its first sweep evaluates both tries of every
    scout of every run; a later one evaluates, of the candidates ``run``
    makes in that iteration, every one that no earlier sweep of the chain
    evaluated: the walks, the repaired tries, and the first tries whose
    sign has not come up before.  It evaluates no other row again, but for
    the scout at its run's global best: both its first tries and its second
    try (a zero saved pace) are its position, three tries of the block with
    one row's bits, each evaluated once.  In FDO every scout holds the
    global best value, so every scout walks, and a later sweep evaluates
    the R·p walks alone.  The box [0.5, 2] keeps the clamp, which can put a
    repaired try on bits it had before."""
    config = replace(config, population=7, iterations=25, seed=3)
    runs, p = 3, config.population
    events = _sweeps(objective, config, runs, monkeypatch)
    chain = events[events.index(("sweep", 0)):]
    # no scout call, and every sweep starts an iteration
    assert all(event == ("sweep", 0) for event in chain if isinstance(event, tuple))
    sweeps = _swept_rows(chain)
    assert [held for _, held in sweeps] == [p] * (config.iterations - 1)
    candidates = [_run_candidates(objective, config, config.seed + k) for k in range(runs)]
    sent = []
    for t, (rows, _) in enumerate(sweeps, start=1):
        made = {row for by_iteration in candidates for row in by_iteration[t]}
        assert made - set(sent) <= set(rows) <= made
        sent += rows
    if objective.bounds.straddles_zero:
        # elsewhere a repair clamped onto the box repeats its bits, though it is new
        assert len(sent) - len(set(sent)) <= 2 * runs
    assert len(sweeps[0][0]) == 2 * runs * p
    if config.mode == FDO:
        assert all(len(rows) == runs * p for rows, _ in sweeps[1:])
    else:
        assert max(len(rows) for rows, _ in sweeps[1:]) < 2 * runs * p


def _iterations(events):
    """The scout calls, sweeps and sweep returns of ``events``, from
    ``_sweeps``, split by iteration.  An iteration opens with a sweep from
    scout 0, or with scout 0 unless that follows a sweep that returned 0."""
    iterations = []
    for event in events:
        if isinstance(event, list):
            continue
        if event in (("sweep", 0), ("scout", 0)) and iterations[-1:] != [[("sweep", 0), 0]]:
            iterations.append([])
        iterations[-1].append(event)
    return iterations


def _rollbacks(events, p):
    """Check the schedule of each iteration in ``events`` and return, per
    iteration whose sweep rolled back at some scout m, m and what a second
    sweep, from m + 1, returned (None when m is the last scout).

    An iteration makes every scout in order, or is one sweep that holds, or
    rolls back at m: then it makes scout m, sweeps m + 1 .. p - 1 if m < p - 1,
    and makes the scouts from where that sweep returns.  The next iteration
    opens with a sweep exactly when no run accepted after scout m: the
    second sweep held, or there was none.  Scout m, and the scout a second
    sweep rolls back to, accepts in some run."""
    iterations = _iterations(events)
    rollbacks = []
    for t, done in enumerate(iterations):
        opens = iterations[t + 1][0] if t + 1 < len(iterations) else None
        if done[0] == ("scout", 0):
            assert done == [("scout", i) for i in range(p)]
            continue
        if done == [("sweep", 0), p]:
            assert opens in (None, ("sweep", 0))
            continue
        m = done[1]
        order, resumed = [("sweep", 0), m, ("scout", m)], None
        if m + 1 < p:
            resumed = done[4] if len(done) > 4 and isinstance(done[4], int) else -1
            order += [("sweep", m + 1), resumed] + [("scout", i) for i in range(resumed, p)]
        assert done == order
        assert opens in (None, ("sweep", 0) if resumed in (None, p) else ("scout", 0))
        rollbacks.append((m, resumed))
    return rollbacks


def test_run_many_rolls_a_sweep_back_when_some_run_accepts(monkeypatch):
    """On TF9 in IFDO accepts grow rare, so sweeps are tried.  One that holds
    returns p; one in which some run accepts at scout m is undone from
    there on, keeps the scouts before m, and its iteration makes scout m,
    then sweeps the scouts after it once more."""
    objective = next(spec for spec in all_objectives() if spec.id == "TF9")
    config = RunConfig(population=10, iterations=60, mode=IFDO, seed=3)
    p = config.population
    events = _sweeps(objective, config, 3, monkeypatch)
    assert p in events
    rollbacks = _rollbacks(events, p)
    assert any(m > 0 for m, _ in rollbacks)
    assert any(resumed is not None for _, resumed in rollbacks)


@pytest.mark.parametrize("fid, mode, wf_scope", [("TF9", IFDO, "scout"), ("CEC04", IFDO, "scout"),
                                                 ("EVAC", FDO, "scout"), ("TF1", IFDO, "swarm")])
def test_run_many_equals_run_through_sweep_chains_and_kept_prefixes(fid, mode, wf_scope,
                                                                    monkeypatch):
    """Long runs reach what 10 iterations rarely do: chains of held sweeps,
    whose later sweeps skip the rows known to reject, and rollbacks that
    keep the scouts before the first that accepts.  TF9 and TF1 (swarm
    scope) in IFDO, CEC04 in IFDO, and EVAC (d = 1, a clamped box and a
    memoized evaluator) in FDO, each bit for bit against ``run``."""
    objective = next(spec for spec in all_objectives() if spec.id == fid)
    config = RunConfig(population=12, iterations=150, mode=mode, wf_scope=wf_scope, seed=3)
    runs, p = 3, config.population
    events = _sweeps(objective, config, runs, monkeypatch)
    sweeps = _swept_rows(events)
    # after a held sweep the next iteration is a sweep of the same chain
    chained = [rows for (_, last), (rows, held) in zip(sweeps, sweeps[1:])
               if last == held == p]
    assert chained and min(map(len, chained)) < 2 * runs * p
    assert any(m > 0 for m, _ in _rollbacks(events, p))


@pytest.mark.parametrize(
    "fid, mode, population, seeds",
    [("TF9", IFDO, 12, range(3, 6)), ("CEC04", IFDO, 12, range(3)), ("EVAC", FDO, 20, range(3, 6)),
     ("TF1", IFDO, 30, range(3, 6)), ("ANTENNA", FDO, 30, range(3, 6))],
)
def test_run_many_resumes_a_rolled_back_sweep_after_its_accepting_scout(fid, mode, population,
                                                                        seeds, monkeypatch):
    """After a rollback at m and scout m, the scouts after m are swept once
    more.  On TF9 and CEC04 in IFDO, and EVAC in FDO (d = 1, a clamped box
    and a memoized evaluator), such a sweep holds, and the next iteration
    opens with a sweep, bit for bit against ``run``.  On TF1 in IFDO and
    ANTENNA in FDO some run accepts in every iteration, so they never sweep
    and pay nothing for it."""
    objective = next(spec for spec in all_objectives() if spec.id == fid)
    config = RunConfig(population=population, iterations=150, mode=mode, seed=seeds.start)
    events = _sweeps(objective, config, len(seeds), monkeypatch)
    if fid in ("TF1", "ANTENNA"):
        assert all(event[0] == "scout" for event in events if isinstance(event, tuple))
    else:
        assert any(resumed == population for _, resumed in _rollbacks(events, population))


@pytest.mark.parametrize("fid, population", [("TF9", 1), ("EVAC", 2)])
def test_run_many_makes_no_second_sweep_after_a_rollback_at_the_last_scout(fid, population,
                                                                          monkeypatch):
    """A sweep that rolls back at the last scout leaves nothing after it to
    sweep: its iteration makes that scout alone, with no second sweep, so no
    draw and no chain, and the next iteration opens with a sweep.  In FDO
    TF9 with one scout and EVAC with two roll back there often."""
    objective = next(spec for spec in all_objectives() if spec.id == fid)
    config = RunConfig(population=population, iterations=150, mode=FDO, seed=3)
    events = _sweeps(objective, config, 3, monkeypatch)
    assert (population - 1, None) in _rollbacks(events, population)


def test_a_scout_reads_the_chains_terms_while_no_run_has_accepted_since(monkeypatch):
    """The chain of sweeps is the one store of IFDO terms: ``scout`` m right
    after a rollback at m, before any run accepts, reads scout m's terms out
    of it, and computes its own only once some run has accepted since the
    chain was built.  TF9 in IFDO rolls back often."""
    objective = next(spec for spec in all_objectives() if spec.id == "TF9")
    config = RunConfig(population=12, iterations=150, mode=IFDO, seed=3)
    terms, current = core._Lockstep.proposal_terms, []

    def counted(self, first, stop):
        if stop - first == 1:
            current.append(self.chain.accepts == self.accepts)
        return terms(self, first, stop)

    monkeypatch.setattr(core._Lockstep, "proposal_terms", counted)
    events = _sweeps(objective, config, 4, monkeypatch)
    assert _rollbacks(events, config.population)
    assert current and not any(current)


@pytest.mark.parametrize("fid", ["TF7", "ONE"])
def test_run_many_never_sweeps_a_noisy_objective(fid, monkeypatch):
    """TF7 draws its noise on every evaluation, so a sweep could not lay
    out its draws; a noisy constant rejects every candidate and still
    goes scout by scout."""
    objective = next((spec for spec in all_objectives() if spec.id == fid),
                     ObjectiveSpec("ONE", box(3, -1, 1), lambda z, rng: 1.0, noisy=True))
    config = RunConfig(population=8, iterations=20, mode=IFDO, seed=3)
    events = _sweeps(objective, config, 2, monkeypatch)
    assert all(event[0] == "scout" for event in events if isinstance(event, tuple))


def _kernel_spy(spec, calls, noisy=False):
    """``spec`` with its evaluator counting its calls in ``calls``; with
    ``noisy`` the spec becomes noisy, so its evaluator takes (z, rng)."""
    evaluator = spec.evaluator

    def counted(z, rng=None):
        calls.append(1)
        return evaluator(z, rng) if spec.noisy else evaluator(z)

    return replace(spec, evaluator=counted, noisy=spec.noisy or noisy)


@pytest.mark.parametrize("fid, mode", [("ANTENNA", FDO), ("EVAC", FDO), ("EVAC", IFDO)])
def test_run_many_evaluates_a_repeated_candidate_of_a_deterministic_kernel_once(fid, mode):
    """A scout that rejected both tries proposes its second try again; the
    lockstep finds its value instead of calling the kernel, and keeps every bit."""
    objective = next(spec for spec in all_objectives() if spec.id == fid)
    config = RunConfig(population=10, iterations=60, mode=mode, seed=3, record_positions=True)
    in_lockstep, candidates = [], []
    records = run_many(config, 4, _kernel_spy(objective, in_lockstep))
    assert _each_is_run(records, config, _kernel_spy(objective, candidates))
    assert len(in_lockstep) < len(candidates)


@pytest.mark.parametrize("fid", ["TF7", "ANTENNA"])
def test_run_many_calls_a_raw_evaluator_once_per_candidate(fid):
    """A noisy evaluator draws on every call (TF7) and may keep state, so it
    is not memoized, even where candidates repeat (ANTENNA made noisy)."""
    objective = next(spec for spec in all_objectives() if spec.id == fid)
    config = RunConfig(population=10, iterations=30, mode=FDO, seed=3)
    in_lockstep, candidates = [], []
    records = run_many(config, 2, _kernel_spy(objective, in_lockstep, noisy=True))
    assert _each_is_run(records, config, _kernel_spy(objective, candidates, noisy=True))
    assert len(in_lockstep) == len(candidates)


def test_lockstep_memo_holds_the_candidates_of_two_iterations_at_most():
    """After each iteration the memo holds exactly that iteration's candidates
    and the last one's.  Each iteration starts a new pair, as ``_drive`` does."""
    objective = next(spec for spec in all_objectives() if spec.id == "ANTENNA")
    evaluate_many, seen = objective.evaluate_many, [set()]

    def recorded(X, rngs, memo=None):
        seen[-1].update(x.tobytes() for x in X)  # ANTENNA's shift is zero
        return evaluate_many(X, rngs, memo)

    objective.evaluate_many = recorded
    config = RunConfig(population=8, mode=FDO)
    batch = core._Lockstep([init_population(replace(config, seed=s), objective)
                            for s in (3, 4, 5)], objective)
    for _ in range(40):
        seen.append(set())
        batch.memo = ({}, batch.memo[0])
        for i in range(config.population):
            batch.scout(i)
        this, last = batch.memo
        assert set(this) == seen[-1] and set(last) == seen[-2]
        assert len(this) + len(last) <= 2 * 3 * config.population * 2


def test_lockstep_memo_holds_two_iterations_of_candidates_through_sweeps(monkeypatch):
    """EVAC in FDO sweeps most iterations, and rolls some sweeps back after
    keeping a prefix, then sweeps the scouts after the accepting one again,
    where some of these second sweeps hold and some roll back: as each
    iteration ends, the memo holds candidates evaluated in it and in the one
    before, at most 2Rp of each, and the next iteration starts with a new
    dict and that iteration's.  A rolled-back sweep's rows are not among
    them: its scouts before m reject, and those from m on are made again by
    ``scout`` or a sweep."""
    objective = replace(next(spec for spec in all_objectives() if spec.id == "EVAC"))
    evaluate_many, lockstep = objective.evaluate_many, core._Lockstep
    scout, sweep = lockstep.scout, lockstep.sweep
    config, runs = RunConfig(population=12, iterations=300, mode=FDO, seed=3), 3
    seen, returned, left, resumed = [set(), set()], [], [], []

    def ends_iteration(memo):
        this, last = memo
        assert set(this) <= seen[-1] and set(last) <= seen[-2]
        assert max(len(this), len(last)) <= 2 * runs * config.population

    def starts_iteration(batch):
        if left:
            ends_iteration(left[0])
            assert batch.memo[0] == {} and batch.memo[1] is left[0][0]
        seen.append(set())

    def recorded(X, rngs, memo=None):
        seen[-1].update(z.tobytes() for z in np.asarray(X) - objective.shift)
        return evaluate_many(X, rngs, memo)

    def logged_sweep(self, first=0):
        if first == 0:
            starts_iteration(self)
        seen.append(set())  # the sweep's own rows
        returned.append(sweep(self, first))
        rows = seen.pop()
        if first:
            resumed.append(returned[-1] == config.population)
        if returned[-1] == config.population:
            seen[-1] |= rows  # the memo keeps none of a rolled-back sweep's rows
        left[:] = [self.memo]
        return returned[-1]

    def logged_scout(self, i):
        # scout 0 starts an iteration unless it follows a sweep that returned 0
        if i == 0 and returned[-1:] != [0]:
            starts_iteration(self)
        returned.append(None)
        scout(self, i)
        left[:] = [self.memo]

    objective.evaluate_many = recorded
    monkeypatch.setattr(core._Lockstep, "scout", logged_scout)
    monkeypatch.setattr(core._Lockstep, "sweep", logged_sweep)
    run_many(config, runs, objective)
    ends_iteration(left[0])
    assert len(seen) == config.iterations + 2
    assert any(isinstance(m, int) and 0 < m < config.population for m in returned)
    assert True in resumed and False in resumed  # second sweeps that held and rolled back

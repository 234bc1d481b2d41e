"""Unit tests for the optimizer engine."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from fdopt.objective import ObjectiveSpec, box, deterministic
from fdopt.classical import sphere, rastrigin
from fdopt.registry import all_objectives


def sphere_objective(dim, low=-1.0, high=1.0):
    return ObjectiveSpec(
        id=f"sphere{dim}",
        dimension=dim,
        bounds=box(dim, low, high),
        evaluator=deterministic(sphere),
    )


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
    out = propose_position([1.0, 1.0], np.array([0.5, -0.5]), ctx, IFDO)
    np.testing.assert_allclose(out, [1.5, 0.5], atol=1e-12)


def test_propose_alignment_over_cohesion():
    ctx = core.NeighborhoodContext(1.0, 1, np.array([2.0]), np.array([4.0]))
    out = propose_position([0.0], np.array([1.0]), ctx, IFDO)
    np.testing.assert_allclose(out, [1.5], atol=1e-12)


def test_propose_zero_cohesion_guard():
    ctx = core.NeighborhoodContext(1.0, 1, np.array([2.0]), np.array([0.0]))
    out = propose_position([0.0], np.array([1.0]), ctx, IFDO)
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_propose_fdo_ignores_context():
    ctx = core.NeighborhoodContext(1.0, 1, np.array([2.0]), np.array([4.0]))
    out = propose_position([0.0], np.array([1.0]), ctx, FDO)
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
    assert np.all((lb <= out) & (out <= ub))
    inside = (lb <= x) & (x <= ub)
    np.testing.assert_array_equal(out[inside], x[inside])
    # the documented repair bias of boxes that do not contain zero
    pinned_low = (x < lb) & (lb > 0)
    pinned_high = (x > ub) & (ub < 0)
    np.testing.assert_array_equal(out[pinned_low], lb[pinned_low])
    np.testing.assert_array_equal(out[pinned_high], ub[pinned_high])


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
        id="shifted", dimension=2, bounds=box(2, -1, 1), evaluator=deterministic(sphere),
        shift=shift,
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


def test_init_population_deterministic():
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


def test_run_deterministic():
    objective = ObjectiveSpec(
        id="rastrigin2",
        dimension=2,
        bounds=box(2, -5.12, 5.12),
        evaluator=deterministic(rastrigin),
    )
    a = run(RunConfig(population=12, iterations=40, seed=123), objective)
    b = run(RunConfig(population=12, iterations=40, seed=123), objective)
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.best_position, b.best_position)
    assert a.best_fitness == b.best_fitness


def test_run_records_positions():
    objective = sphere_objective(3)
    record = run(RunConfig(population=6, iterations=15, seed=0, record_positions=True), objective)
    assert record.positions.shape == (15, 6, 3)
    assert np.all(record.positions >= -1.0) and np.all(record.positions <= 1.0)


def test_non_finite_fitness_never_accepted():
    calls = {"n": 0}

    def unstable(z, rng):
        calls["n"] += 1
        return np.nan if calls["n"] % 3 == 0 else sphere(z)

    objective = ObjectiveSpec(id="unstable", dimension=2, bounds=box(2, -1, 1), evaluator=unstable)
    record = run(RunConfig(population=5, iterations=20, seed=6), objective)
    assert np.all(np.isfinite(record.trace))
    assert np.all(np.diff(record.trace) <= 0.0)


def test_first_best_iteration():
    assert first_best_iteration([5.0, 3.0, 3.0, 1.0, 1.0]) == 4
    assert first_best_iteration([2.0, 2.0]) == 1


# -- properties of whole runs ------------------------------------------------

PROPERTY_OBJECTIVES = {
    "sphere": sphere_objective(3),
    "rastrigin": ObjectiveSpec(
        id="rastrigin2", dimension=2, bounds=box(2, -5.12, 5.12), evaluator=deterministic(rastrigin)
    ),
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

    def poisoned(z, rng):
        return bad if z[0] > threshold else sphere(z)

    objective = ObjectiveSpec(id="poisoned", dimension=2, bounds=box(2, -1, 1), evaluator=poisoned)
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


@pytest.mark.parametrize("wf_scope", core.WF_SCOPES)
@pytest.mark.parametrize("mode", core.MODES)
@pytest.mark.parametrize("objective", all_objectives(), ids=lambda spec: spec.id)
def test_run_many_equals_run_bit_for_bit(objective, mode, wf_scope):
    configs = [
        RunConfig(population=6, iterations=10, mode=mode, wf_scope=wf_scope, seed=seed,
                  record_positions=True)
        for seed in (3, 4, 5)
    ]
    for config, record in zip(configs, run_many(configs, objective)):
        assert _same_record(record, run(config, objective))


def test_run_many_sums_one_dimensional_neighborhoods_run_by_run():
    """EVAC (d = 1) with enough neighbors that numpy sums them pairwise: a
    sum over all scouts with non-neighbors filled by -0.0 groups the
    additions differently and changes bits."""
    objective = next(spec for spec in all_objectives() if spec.id == "EVAC")
    configs = [RunConfig(population=12, iterations=10, mode=IFDO, seed=s) for s in (3, 4, 5)]
    for config, record in zip(configs, run_many(configs, objective)):
        assert _same_record(record, run(config, objective))


def _scout_at_negative_zero(other):
    """Scout 0 at (-0.0, 0.5), the global best, beside scout 1 at ``other``.

    Seed 4 draws a negative r, so scout 0's fresh pace toward the best is -0.0."""
    positions = np.array([[-0.0, 0.5], other])
    fitness = np.array([sphere(x) for x in positions])
    best = int(np.argmin(fitness))
    return SwarmState(positions=positions, paces=np.zeros((2, 2)), fitness=fitness,
                      global_best_position=positions[best].copy(),
                      global_best_fitness=float(fitness[best]), weight_factors=np.full(2, 0.5),
                      mode=IFDO, rng=np.random.default_rng(4))


@pytest.mark.parametrize("other_run_neighbor", [[0.9, -0.9], [0.0, 0.45]])
def test_run_many_adds_no_neighborhood_term_without_neighbors(other_run_neighbor):
    """Scout 0 has no neighbor, and its candidate is -0.0 + -0.0: adding a
    0.0 term would propose 0.0 where ``step`` proposes -0.0, whether the
    batch's other run has no neighbor either or has one."""
    seen = []

    def recorder(z, rng):
        seen.append(z.tobytes())
        return sphere(z)

    objective = ObjectiveSpec(id="rec", dimension=2, bounds=box(2, -1, 1), evaluator=recorder)
    step(_scout_at_negative_zero([0.9, -0.9]), objective)
    alone, seen[:] = list(seen), []
    swarms = [_scout_at_negative_zero([0.9, -0.9]), _scout_at_negative_zero(other_run_neighbor)]
    core._Lockstep(swarms, objective).scout(0)
    assert np.frombuffer(alone[0])[0].tobytes() == np.float64(-0.0).tobytes()
    assert seen[0] == alone[0]


def _poisoned(z, rng):
    return np.nan if z[0] > 0.5 else sphere(z)


LOCKSTEP_OBJECTIVES = {
    **PROPERTY_OBJECTIVES,
    "sphere1": sphere_objective(1),
    "poisoned": ObjectiveSpec(id="poisoned", dimension=2, bounds=box(2, -1, 1), evaluator=_poisoned),
}


@run_settings
@given(small_configs, st.sampled_from(sorted(LOCKSTEP_OBJECTIVES)), st.integers(1, 4))
def test_run_many_equals_run_on_small_swarms(config, name, runs):
    """d = 1, 2 and 3, one to four runs, non-finite values and every setting."""
    objective = LOCKSTEP_OBJECTIVES[name]
    configs = [replace(config, seed=config.seed + k) for k in range(runs)]
    for config, record in zip(configs, run_many(configs, objective)):
        assert _same_record(record, run(config, objective))


@pytest.mark.parametrize(
    "change",
    [dict(population=7), dict(iterations=9), dict(mode=FDO), dict(fdo_wf=1.0),
     dict(record_positions=False), dict(wf_scope="swarm")],
    ids=lambda change: next(iter(change)),
)
def test_run_many_rejects_configs_that_differ_beyond_the_seed(change):
    base = RunConfig(population=6, iterations=10, mode=IFDO, record_positions=True)
    with pytest.raises(ValueError, match="seed"):
        run_many([base, replace(base, seed=1), replace(base, seed=2, **change)], sphere_objective(2))


def test_run_many_needs_a_config():
    with pytest.raises(ValueError, match="config"):
        run_many([], sphere_objective(2))


def test_run_many_records_are_views_of_one_block_with_a_share_of_the_time():
    configs = [RunConfig(population=4, iterations=5, seed=s, record_positions=True) for s in range(3)]
    records = run_many(configs, sphere_objective(2))
    block = records[0].positions.base
    assert block.shape == (3, 5, 4, 2)
    assert all(r.positions.base is block for r in records)
    assert len({r.wall_time_s for r in records}) == 1

"""Tests for the classical benchmark suite, with independent scalar oracles."""

import inspect
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fdopt import classical
from fdopt.applications import is_feasible
from fdopt.objective import ObjectiveSpec, box, over_last_axis
from fdopt.registry import all_objectives, get_objective
from fdopt.classical import (
    COMPOSITE_SCALE,
    catalog,
    composite_evaluate,
    composite_specs,
)

SPECS = {spec.id: spec for spec in catalog()}

# deterministic functions whose tabulated minimum is zero
ZERO_MIN_IDS = ["TF1", "TF2", "TF3", "TF4", "TF5", "TF6", "TF9", "TF10", "TF11", "TF12", "TF13"]


def test_catalog_size_and_ids():
    assert len(SPECS) == 19
    assert set(SPECS) == {f"TF{i}" for i in range(1, 20)}


def test_catalog_tabulated_rows():
    tf2 = SPECS["TF2"]
    assert tf2.bounds.lower[0] == -10 and tf2.bounds.upper[0] == 10
    np.testing.assert_array_equal(tf2.shift, np.full(10, -3.0))
    tf8 = SPECS["TF8"]
    assert tf8.bounds.lower[0] == -500 and tf8.bounds.upper[0] == 500
    np.testing.assert_array_equal(tf8.shift, np.full(10, -300.0))
    assert tf8.known_fmin == pytest.approx(-2917375.29380209)
    assert tf8.tabulated_fmin == pytest.approx(-418.9829)
    tf14 = SPECS["TF14"]
    assert tf14.dimension == 10
    assert tf14.bounds.lower[0] == -5 and tf14.bounds.upper[0] == 5
    tf5 = SPECS["TF5"]
    assert tf5.bounds.lower[0] == -30 and tf5.bounds.upper[0] == 30


def test_zero_minimum_at_recorded_optimum():
    for fid in ZERO_MIN_IDS:
        spec = SPECS[fid]
        assert spec.optimum is not None, fid
        assert spec.evaluate(spec.optimum) == pytest.approx(0.0, abs=1e-10), fid


def test_rosenbrock_identity_unshifted():
    assert classical.rosenbrock(np.ones(10)) == 0.0


def test_ackley_identity_origin():
    assert classical.ackley(np.zeros(10)) == pytest.approx(0.0, abs=1e-12)


def test_rastrigin_independent_scalar_oracle():
    # straight transcription of the printed sum, one term at a time
    def oracle(x):
        return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in x)

    rng = np.random.default_rng(0)
    assert classical.rastrigin(np.zeros(10)) == 0.0
    x = np.zeros(10)
    x[0] = 0.5
    assert classical.rastrigin(x) == pytest.approx(oracle(x), abs=1e-12)
    assert classical.rastrigin(x) == pytest.approx(20.25, abs=1e-12)
    for _ in range(20):
        x = rng.uniform(-5.12, 5.12, 10)
        assert classical.rastrigin(x) == pytest.approx(oracle(x), abs=1e-9)


def test_tf8_kernel_independent_oracle():
    def oracle(x):
        return sum(-(v**2) * math.sin(math.sqrt(abs(v))) for v in x)

    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-500, 500, 10)
        assert classical.schwefel_sq_sin(x) == pytest.approx(oracle(x), rel=1e-12)


def test_tf1_even_about_shift():
    spec = SPECS["TF1"]
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-100, 100, 10)
        mirrored = -x + 2.0 * spec.shift
        assert spec.evaluate(x) == pytest.approx(spec.evaluate(mirrored), rel=1e-12)


def test_tf7_noise_term():
    spec = SPECS["TF7"]
    value = spec.evaluate(spec.optimum, np.random.default_rng(0))
    assert 0.0 <= value < 1.0
    # reproducible under a fixed seed
    again = spec.evaluate(spec.optimum, np.random.default_rng(0))
    assert value == again


def test_tf7_needs_a_generator():
    spec = SPECS["TF7"]
    with pytest.raises(ValueError, match="rng"):
        spec.evaluate(spec.optimum)


def test_purity_of_deterministic_evaluators():
    rng = np.random.default_rng(3)
    for fid in ZERO_MIN_IDS + ["TF14", "TF17"]:
        spec = SPECS[fid]
        x = rng.uniform(spec.bounds.lower, spec.bounds.upper)
        assert spec.evaluate(x) == spec.evaluate(x)


@pytest.mark.parametrize("spec", all_objectives(), ids=lambda spec: spec.id)
def test_evaluate_returns_a_python_float(spec):
    """Kernels return numpy's scalar; ``evaluate`` is the one conversion."""
    assert spec.dimension == spec.bounds.dimension == spec.shift.size
    x = np.random.default_rng(5).uniform(spec.bounds.lower, spec.bounds.upper)
    assert type(spec.evaluate(x, np.random.default_rng(0))) is float


def test_every_objective_is_checked_for_a_python_float():
    assert len(all_objectives()) == 31


@pytest.mark.parametrize("layout, feasible", [([0.25, 0.75, 1.25, 1.75], True), ([0.5] * 4, False)])
def test_antenna_returns_a_python_float_on_both_branches(layout, feasible):
    assert is_feasible(layout) is feasible
    assert type(get_objective("ANTENNA").evaluate(layout)) is float


@pytest.mark.parametrize("value", [np.float32(1.5), np.float64(1.5), 3], ids=["f32", "f64", "int"])
def test_evaluate_converts_a_user_evaluator_value(value):
    spec = ObjectiveSpec("USER", box(2, -1.0, 1.0), evaluator=lambda z: value)
    result = spec.evaluate(np.zeros(2))
    assert type(result) is float and result == value


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        SPECS["TF1"].evaluate(np.zeros(9))


def test_dimension_is_that_of_the_bounds():
    spec = ObjectiveSpec("X", box(3, -1, 1), classical.sphere)
    assert spec.dimension == 3 and "dimension" not in {f.name for f in fields(ObjectiveSpec)}
    np.testing.assert_array_equal(spec.shift, np.zeros(3))
    flat = ObjectiveSpec("Y", box(2, -1, 1), classical.sphere, shift=[0.5, 0.5])
    wider = replace(flat, bounds=box(3, -1, 1), shift=None)
    assert wider.dimension == wider.bounds.dimension == wider.shift.size == 3


def test_bounds_that_are_not_a_bounds_rejected():
    """The old call ``ObjectiveSpec(id, dimension, bounds, evaluator)`` binds bounds=2."""
    with pytest.raises(ValueError, match="X: bounds must be a Bounds, got 2"):
        ObjectiveSpec("X", 2, box(2, -1, 1), classical.sphere)


@pytest.mark.parametrize("shape", [(2,), (1, 3), (3, 1)], ids=["2", "1x3", "3x1"])
def test_shift_of_another_length_rejected(shape):
    """A (1, 3) or (3, 1) shift has three entries but would broadcast x - shift
    into a matrix and evaluate another function."""
    with pytest.raises(ValueError, match="shift length"):
        ObjectiveSpec("x", box(3, -1, 1), classical.sphere, shift=np.zeros(shape))


@pytest.mark.parametrize("optimum", [[1, 2, 3], [[1, 2]], 0.5], ids=["3", "1x2", "scalar"])
def test_optimum_of_another_length_rejected(optimum):
    """An optimum is checked as the shift is: ``evaluate(spec.optimum)`` must
    take it."""
    with pytest.raises(ValueError, match="Z: optimum length"):
        ObjectiveSpec("Z", box(2, -1, 1), abs, optimum=optimum)


def test_optimum_is_kept_as_a_float_vector():
    spec = ObjectiveSpec("Z", box(2, -1, 1), classical.sphere, optimum=[1, 0])
    assert spec.optimum.dtype == float and spec.optimum.tolist() == [1.0, 0.0]
    assert spec.evaluate(spec.optimum) == 1.0
    assert ObjectiveSpec("Z", box(2, -1, 1), classical.sphere).optimum is None


@pytest.mark.parametrize("noisy", ["yes", None, 2])
def test_noisy_that_is_not_a_bool_rejected(noisy):
    with pytest.raises(ValueError, match="noisy must be one of"):
        ObjectiveSpec("x", box(2, -1, 1), classical.sphere, noisy=noisy)


@pytest.mark.parametrize("spec", all_objectives(), ids=lambda spec: spec.id)
def test_only_a_noisy_evaluator_takes_a_generator(spec):
    """TF7 alone draws noise; every other evaluator is a function of z alone."""
    parameters = inspect.signature(spec.evaluator).parameters.values()
    required = [p for p in parameters if p.default is inspect.Parameter.empty]
    assert spec.noisy == (spec.id == "TF7")
    assert len(required) == (2 if spec.noisy else 1)


def test_specs_compare_by_identity_and_bounds_by_value():
    spec = get_objective("TF1")
    copy = replace(spec)
    assert spec == spec and spec != copy
    assert spec.bounds == copy.bounds


def test_weierstrass_zero_at_origin():
    assert classical.weierstrass(np.zeros(10)) == pytest.approx(0.0, abs=1e-10)


# -- composites --------------------------------------------------------------


def scalar_sphere(z):
    return sum(v * v for v in z)


def scalar_griewank(z):
    s = sum(v * v for v in z) / 4000.0
    p = 1.0
    for i, v in enumerate(z, start=1):
        p *= math.cos(v / math.sqrt(i))
    return s - p + 1.0


def scalar_ackley(z):
    n = len(z)
    s = sum(v * v for v in z)
    c = sum(math.cos(2.0 * math.pi * v) for v in z)
    return -20.0 * math.exp(-0.2 * math.sqrt(s / n)) - math.exp(c / n) + 20.0 + math.e


def scalar_rastrigin(z):
    return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in z)


def scalar_weierstrass(z, a=0.5, b=3.0, kmax=20):
    total = 0.0
    for v in z:
        for k in range(kmax + 1):
            total += a**k * math.cos(2.0 * math.pi * b**k * (v + 0.5))
    offset = 0.0
    for k in range(kmax + 1):
        offset += a**k * math.cos(math.pi * b**k)
    return total - len(z) * offset


_SCALAR = {
    classical.sphere: scalar_sphere,
    classical.griewank: scalar_griewank,
    classical.ackley: scalar_ackley,
    classical.rastrigin: scalar_rastrigin,
    classical.weierstrass: scalar_weierstrass,
}


def composite_oracle(spec, x):
    """Plain-python transcription of the weighted composition formula."""
    d = len(x)
    weights = []
    sq_dists = []
    for i in range(10):
        sq = sum((x[j] - spec.component_optima[i][j]) ** 2 for j in range(d))
        sq_dists.append(sq)
        weights.append(math.exp(-sq / (2.0 * d * spec.sigmas[i] ** 2)))
    wmax = max(weights)
    if wmax == 0.0:
        nearest = min(range(10), key=lambda i: sq_dists[i])
        weights = [1.0 if i == nearest else 0.0 for i in range(10)]
    else:
        weights = [
            w if w == wmax else w * (1.0 - wmax**10) for w in weights
        ]
    total_w = sum(weights)
    value = 0.0
    for i in range(10):
        w = weights[i] / total_w
        if w == 0.0:
            continue
        z = [(x[j] - spec.component_optima[i][j]) / spec.lambdas[i] for j in range(d)]
        fi = COMPOSITE_SCALE * _SCALAR[spec.components[i]](z) / spec.fmax[i]
        value += w * (fi + spec.biases[i])
    return value


@pytest.mark.parametrize("fid", ["TF14", "TF15", "TF16", "TF17", "TF18", "TF19"])
def test_composite_zero_at_first_optimum(fid):
    spec = composite_specs()[fid]
    assert composite_evaluate(spec, spec.component_optima[0]) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("fid", ["TF14", "TF15", "TF16", "TF17", "TF18", "TF19"])
def test_composite_matches_straight_line_oracle(fid):
    spec = composite_specs()[fid]
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform(-5, 5, 10)
        assert composite_evaluate(spec, x) == pytest.approx(
            composite_oracle(spec, list(x)), abs=1e-9, rel=1e-9
        )


def test_composite_finite_over_random_points():
    specs = composite_specs()
    rng = np.random.default_rng(11)
    points = rng.uniform(-5, 5, size=(2000, 10))
    for spec in specs.values():
        values = [composite_evaluate(spec, p) for p in points[:300]]
        assert np.all(np.isfinite(values))


def test_composite_dimension_gate():
    spec = composite_specs()["TF14"]
    with pytest.raises(ValueError):
        composite_evaluate(spec, np.zeros(9))


def test_degenerate_composition_all_sphere_coincident():
    spec = composite_specs()["TF14"]
    coincident = classical.CompositeSpec(
        components=[classical.sphere] * 10,
        sigmas=np.ones(10),
        lambdas=np.ones(10),
        component_optima=np.zeros((10, 10)),
        biases=np.zeros(10),
    )
    assert composite_evaluate(coincident, np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
    assert spec is not coincident


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(components=[classical.sphere] * 9), "exactly 10 components"),
        (dict(sigmas=np.r_[np.ones(9), 0.0]), "must be positive"),
        (dict(lambdas=np.r_[-1.0, np.ones(9)]), "must be positive"),
    ],
    ids=["nine-components", "zero-sigma", "negative-lambda"],
)
def test_composite_spec_rejects_invalid_parts(change, message):
    parts = dict(
        components=[classical.sphere] * 10,
        sigmas=np.ones(10),
        lambdas=np.ones(10),
        component_optima=np.zeros((10, 10)),
        biases=np.zeros(10),
    )
    with pytest.raises(ValueError, match=message):
        classical.CompositeSpec(**{**parts, **change})


def _batch_with_non_finite_rows(spec, rng):
    """Four in-box rows, then rows with a NaN, an inf and a -inf coordinate."""
    rows = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(7, spec.dimension))
    for row, value in zip(rows[4:], (np.nan, np.inf, -np.inf)):
        row[-1] = value
    return rows


@pytest.mark.parametrize("spec", all_objectives(), ids=lambda spec: spec.id)
def test_evaluate_many_has_the_bits_of_evaluate_per_row(spec):
    X = _batch_with_non_finite_rows(spec, np.random.default_rng(11))
    many_rngs = [np.random.default_rng(k) for k in range(len(X))]
    row_rngs = [np.random.default_rng(k) for k in range(len(X))]
    with np.errstate(all="ignore"):
        many = spec.evaluate_many(X, many_rngs)
        rows = [spec.evaluate(x, rng) for x, rng in zip(X, row_rngs)]
    assert all(type(v) is float for v in many)
    assert np.array(many).view(np.uint64).tolist() == np.array(rows).view(np.uint64).tolist()
    # each row draws from its own generator only, as much as evaluate does
    for a, b in zip(many_rngs, row_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_tf7_draws_each_row_noise_from_its_own_generator():
    spec = SPECS["TF7"]
    X = np.random.default_rng(12).uniform(spec.bounds.lower, spec.bounds.upper, size=(5, 10))
    many_rngs = [np.random.default_rng(100 + k) for k in range(5)]
    row_rngs = [np.random.default_rng(100 + k) for k in range(5)]
    assert spec.evaluate_many(X, many_rngs) == [
        spec.evaluate(x, rng) for x, rng in zip(X, row_rngs)
    ]
    for a, b in zip(many_rngs, row_rngs):
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random() == b.random()


@pytest.mark.parametrize("fid, kernel", [("TF1", classical.sphere), ("TF9", classical.rastrigin)])
def test_sphere_and_rastrigin_evaluate_a_batch_in_one_call(fid, kernel):
    """A spy shows the marked kernel called once per ``evaluate_many`` batch and
    the same kernel, unmarked, once per row; both give ``evaluate``'s bits."""
    assert SPECS[fid].evaluator.over_last_axis and not hasattr(SPECS["TF2"].evaluator, "over_last_axis")
    spec = SPECS[fid]
    X = np.random.default_rng(13).uniform(spec.bounds.lower, spec.bounds.upper, size=(4, 10))
    expected = [spec.evaluate(x) for x in X]
    for marked, calls in ((True, 1), (False, len(X))):
        shapes = []

        def spy(z):
            shapes.append(z.shape)
            return kernel(z)

        spied = replace(spec, evaluator=over_last_axis(spy) if marked else spy)
        assert spied.evaluate_many(X, [None] * len(X)) == expected
        assert len(shapes) == calls


def _signed_spec(calls):
    """A deterministic 2-d spec whose kernel tells -0.0 from 0.0 and counts its calls."""

    def signed(z):
        calls.append(z.tobytes())
        return math.copysign(1.0, z[0]) + z[1]

    return ObjectiveSpec("signed", box(2, -1, 1), signed)


def test_evaluate_many_with_a_memo_evaluates_each_distinct_row_once():
    """Rows are told apart by their bytes: -0.0 and 0.0 are two entries, and
    a NaN row, which compares unequal to itself, is found again."""
    calls = []
    spec = _signed_spec(calls)
    X = np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [0.25, np.nan], [0.25, np.nan]])
    expected = [spec.evaluate(x) for x in X]
    calls.clear()
    memo = ({}, {})
    values = spec.evaluate_many(X, [None] * len(X), memo)
    assert np.array(values).view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
    assert values[:3] == [1.5, -0.5, 1.5] and math.isnan(values[4])
    assert calls == [X[0].tobytes(), X[1].tobytes(), X[3].tobytes()]
    assert len(memo[0]) == 3 and memo[1] == {}


def test_evaluate_many_finds_rows_of_the_last_iteration_and_keeps_them():
    calls = []
    spec = _signed_spec(calls)
    X = np.array([[0.25, 0.5], [-0.0, 0.0]])
    last = {X[0].tobytes(): 7.0}
    this = {}
    assert spec.evaluate_many(X, [None, None], (this, last)) == [7.0, -1.0]
    assert calls == [X[1].tobytes()]
    assert this == {X[0].tobytes(): 7.0, X[1].tobytes(): -1.0}


def test_evaluate_many_keys_the_memo_by_the_shifted_row():
    calls = []
    spec = replace(_signed_spec(calls), shift=np.array([0.5, 0.0]))
    X = np.array([[0.5, 0.25]])
    memo = ({}, {})
    assert spec.evaluate_many(X, [None], memo) == [spec.evaluate(X[0])]
    assert list(memo[0]) == [(X[0] - spec.shift).tobytes()]


@pytest.mark.parametrize("fid", ["TF7", "TF1", "TF9"])
def test_evaluate_many_ignores_the_memo_of_noisy_and_batched_evaluators(fid):
    """TF7 draws noise, so a repeated row draws again; TF1 and TF9 evaluate
    the batch in one call.  None of them reads or writes the memo."""
    spec = SPECS[fid]
    x = np.random.default_rng(14).uniform(spec.bounds.lower, spec.bounds.upper)
    X = np.array([x, x, x])
    many_rngs = [np.random.default_rng(7) for _ in X]
    row_rngs = [np.random.default_rng(7) for _ in X]
    # a wrong value kept for the row: read, it would make the values NaN
    key = (x - spec.shift).tobytes()
    memo = ({}, {key: np.nan})
    assert spec.evaluate_many(X, many_rngs, memo) == [
        spec.evaluate(row, rng) for row, rng in zip(X, row_rngs)
    ]
    assert memo[0] == {} and list(memo[1]) == [key]
    for a, b in zip(many_rngs, row_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_evaluate_many_ignores_the_memo_of_a_raw_evaluator():
    """A noisy evaluator draws and may keep state: it is called once per
    row, repeated or not."""
    calls = []

    def stateful(z, rng):
        calls.append(z.tobytes())
        return float(len(calls))

    spec = ObjectiveSpec("stateful", box(2, -1, 1), stateful, noisy=True)
    memo = ({}, {})
    assert spec.evaluate_many(np.zeros((3, 2)), [None] * 3, memo) == [1.0, 2.0, 3.0]
    assert len(calls) == 3 and memo == ({}, {})


@pytest.mark.parametrize(
    "shape, generators",
    [((10,), 1), ((3, 9), 3), ((3, 11), 3), ((2, 3, 10), 2), ((3, 10), 2), ((3, 10), 4)],
)
def test_evaluate_many_rejects_a_wrong_batch(shape, generators):
    with pytest.raises(ValueError, match="TF1"):
        SPECS["TF1"].evaluate_many(np.zeros(shape), [None] * generators)

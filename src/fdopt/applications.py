"""Real-world objectives: antenna sidelobe suppression and evacuation exit placement.

The antenna problem optimizes four free element positions (in wavelengths)
of a symmetric 10-element aperiodic linear array whose outermost element is
fixed at 2.25; the fitness is the peak sidelobe level in dB outside the
main lobe.  The evacuation problem places a single exit on the perimeter
of a rectangular area to minimize the mean evacuation time of a fixed
pedestrian crowd; the decision variable is the perimeter arclength.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import _require_choice, _require_int
from .objective import ObjectiveSpec, box

# -- antenna array -----------------------------------------------------------

FIXED_ELEMENT = 2.25
MIN_POSITION = 0.125
MAX_POSITION = 2.0
MIN_SPACING = 0.25
# angles with |cos(theta)| below this belong to the main lobe (first-null
# estimate for the 4.5-wavelength half-aperture) and are excluded from the
# sidelobe maximum
MAIN_LOBE_COS = 1.0 / 4.5
PENALTY_WEIGHT = 1e6
PENALTY_OFFSET = 1e3


def _fixed_element_term(u):
    """Contribution of the fixed outermost element at every entry of ``u``."""
    return np.cos(u * 2.0 * np.pi * FIXED_ELEMENT)


# the one array the objective measures: steered broadside, its pattern
# sampled every 0.25 degrees
STEERING_ANGLE_DEG = 90.0
THETA_GRID = np.arange(0.0, 180.0 + 1e-9, 0.25)
_COS_THETA = np.cos(np.radians(THETA_GRID))
SIDELOBE_MASK = np.abs(_COS_THETA) >= MAIN_LOBE_COS
# the sidelobe angles and the fixed element's term there do not depend on
# the candidate, so every evaluation reuses them
_SIDELOBE_U = (_COS_THETA - np.cos(np.radians(STEERING_ANGLE_DEG)))[SIDELOBE_MASK]
_SIDELOBE_FIXED_TERM = _fixed_element_term(_SIDELOBE_U)


def _array_factor(u, fixed_term, positions):
    """Array factor at every entry of the 1-D array ``u = cos(theta) - cos(steering)``.

    ``fixed_term`` is ``_fixed_element_term(u)``.  The free elements' cosines
    are added in element order, then the fixed element's.
    """
    x = np.asarray(positions, dtype=float)
    return np.cos(np.multiply.outer(2.0 * np.pi * x, u)).sum(axis=0) + fixed_term


def array_factor(theta_deg, positions):
    """Array factor of the symmetric array at one angle (degrees)."""
    u = np.array([np.cos(np.radians(theta_deg)) - np.cos(np.radians(STEERING_ANGLE_DEG))])
    return float(_array_factor(u, _fixed_element_term(u), positions)[0])


def spacing_violation(candidate):
    """Total constraint violation: zero iff the candidate is feasible.

    The shortfalls ``d`` are clipped at zero and summed in groups:
    positions below ``MIN_POSITION``, positions above ``MAX_POSITION``,
    then, for each free element in turn, its gaps to every later element
    (the fixed element last) below ``MIN_SPACING``.  Each group is summed
    from -0.0 in index order and the groups are added to 0.0 in that
    order, which is how numpy sums arrays of fewer than 8 elements, so the
    result equals the per-group ``np.sum(np.maximum(0.0, d))`` bit for
    bit.  Plain Python floats are much cheaper than numpy calls on 4
    elements.  ``0.0 if d <= 0.0 else d`` keeps a NaN, as ``np.maximum``
    does, so a NaN coordinate gives a NaN total.
    """
    x = np.asarray(candidate, dtype=float).tolist()
    total = 0.0
    group = -0.0
    for xi in x:
        d = MIN_POSITION - xi
        group += 0.0 if d <= 0.0 else d
    total += group
    group = -0.0
    for xi in x:
        d = xi - MAX_POSITION
        group += 0.0 if d <= 0.0 else d
    total += group
    elements = x + [FIXED_ELEMENT]
    for i, xi in enumerate(x):
        group = -0.0
        for xj in elements[i + 1 :]:
            d = MIN_SPACING - abs(xj - xi)
            group += 0.0 if d <= 0.0 else d
        total += group
    return total


def is_feasible(candidate):
    return spacing_violation(candidate) == 0.0


def antenna_fitness(candidate):
    """Peak sidelobe level in dB, or a static penalty for infeasible layouts."""
    violation = spacing_violation(candidate)
    if violation > 0.0:
        return PENALTY_WEIGHT * violation + PENALTY_OFFSET
    af = _array_factor(_SIDELOBE_U, _SIDELOBE_FIXED_TERM, candidate)
    # log10 is monotone, so the level of the peak is the peak of the levels
    return 20.0 * np.log10(max(np.abs(af).max(), 1e-300))


def antenna_objective():
    return ObjectiveSpec(
        id="ANTENNA",
        bounds=box(4, MIN_POSITION, MAX_POSITION),
        evaluator=antenna_fitness,
    )


# -- evacuation --------------------------------------------------------------

# "paper" multiplies half the distance by the desired speed; "physical"
# is the dimensionally conventional distance over speed
TIME_FORMULAS = {
    "paper": lambda dist, speed: dist / 2.0 * speed,
    "physical": lambda dist, speed: dist / speed,
}


@dataclass
class EvacScenario:
    width: float
    height: float
    positions: np.ndarray  # (n, 2)
    desired_speeds: np.ndarray  # (n,)
    time_formula: str = "paper"  # one of TIME_FORMULAS

    def __post_init__(self):
        _check_area(self.width, self.height)
        _require_choice("time formula", self.time_formula, TIME_FORMULAS)
        self.positions = np.asarray(self.positions, dtype=float)
        self.desired_speeds = np.asarray(self.desired_speeds, dtype=float)
        count = self.desired_speeds.size
        if count == 0 or self.positions.shape != (count, 2) or self.desired_speeds.shape != (count,):
            raise ValueError(
                "expected non-empty (n, 2) positions and (n,) desired speeds, got shapes "
                f"{self.positions.shape} and {self.desired_speeds.shape}"
            )
        if not (np.isfinite(self.positions).all() and np.isfinite(self.desired_speeds).all()):
            raise ValueError("pedestrian positions and desired speeds must be finite")
        if np.any(self.desired_speeds <= 0):
            raise ValueError("desired speeds must be positive")
        if np.any(self.positions[:, 0] < 0) or np.any(self.positions[:, 0] > self.width):
            raise ValueError("pedestrian x outside the area")
        if np.any(self.positions[:, 1] < 0) or np.any(self.positions[:, 1] > self.height):
            raise ValueError("pedestrian y outside the area")

    @property
    def perimeter(self):
        return 2.0 * (self.width + self.height)


def _check_area(width, height):
    # the exit's arclength box spans the perimeter, which bounds both sides
    real = all(isinstance(side, Real) and not isinstance(side, bool) for side in (width, height))
    if not (real and 0.0 < width and 0.0 < height and 2.0 * (width + height) < np.inf):
        raise ValueError(
            f"area width and height must be positive with a finite perimeter, got {width} x {height}"
        )


def build_scenario(width, height, count, seed, time_formula="paper"):
    """Random scenario: uniform positions, uniform[0.6, 1.4] m/s desired speeds."""
    _require_int("count", count, 1)
    _require_int("seed", seed, 0)
    _check_area(width, height)
    rng = np.random.default_rng(seed)
    positions = rng.uniform([0.0, 0.0], [width, height], size=(count, 2))
    speeds = rng.uniform(0.6, 1.4, size=count)
    return EvacScenario(width, height, positions, speeds, time_formula)


def perimeter_point(s, width, height):
    """Map arclength s in [0, perimeter) to a boundary point, counterclockwise
    from the origin corner."""
    perimeter = 2.0 * (width + height)
    s = float(s) % perimeter
    if s < width:
        return np.array([s, 0.0])
    s -= width
    if s < height:
        return np.array([width, s])
    s -= height
    if s < width:
        return np.array([width - s, height])
    s -= width
    return np.array([0.0, height - s])


def evac_distance(p1, p2):
    """Euclidean distance between points, elementwise over leading axes."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return np.hypot(p2[..., 0] - p1[..., 0], p2[..., 1] - p1[..., 1])


def evac_time(dist, desired_speed, formula="paper"):
    """Evacuation time of one pedestrian, elementwise over arrays, by one of
    ``TIME_FORMULAS``."""
    if np.any(np.asarray(desired_speed) <= 0):
        raise ValueError("desired_speed must be positive")
    _require_choice("formula", formula, TIME_FORMULAS)
    return TIME_FORMULAS[formula](dist, desired_speed)


def evac_fitness(exit_parameter, scenario):
    """Mean evacuation time for an exit at the given perimeter arclength."""
    door = perimeter_point(exit_parameter, scenario.width, scenario.height)
    dist = evac_distance(door, scenario.positions)
    # the scenario has already checked its speeds and formula
    time = TIME_FORMULAS[scenario.time_formula]
    return np.mean(time(dist, scenario.desired_speeds))


def evac_objective(scenario):
    return ObjectiveSpec(
        id="EVAC",
        bounds=box(1, 0.0, scenario.perimeter),
        evaluator=lambda z: evac_fitness(z[0], scenario),
    )


def save_scenario(scenario, path):
    """Flat text format: header ``area W H``, then one ``x y speed`` per line."""
    with open(path, "w") as fh:
        fh.write(f"area {scenario.width:.17g} {scenario.height:.17g}\n")
        for (x, y), v in zip(scenario.positions, scenario.desired_speeds):
            fh.write(f"{x:.17g} {y:.17g} {v:.17g}\n")


def _finite_numbers(fields, count, where):
    try:
        values = [float(f) for f in fields]
    except ValueError:
        values = []
    if len(values) != count or not all(np.isfinite(values)):
        raise ValueError(f"{where}: expected {count} finite numbers, got {' '.join(fields)!r}")
    return values


def load_scenario(path, time_formula="paper"):
    """Read a :func:`save_scenario` file.

    A leading UTF-8 byte-order mark is skipped.  Raises ValueError naming the
    file, and the line where there is one, for a file that is not UTF-8, a
    malformed header or row, an empty crowd or an invalid scenario.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    header = lines[0].split() if lines else []
    if header[:1] != ["area"]:
        raise ValueError(f"{path}:1: expected header 'area W H'")
    width, height = _finite_numbers(header[1:], 2, f"{path}:1")
    rows = [
        _finite_numbers(line.split(), 3, f"{path}:{number}")
        for number, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    if not rows:
        raise ValueError(f"{path}: no pedestrian rows after the header")
    data = np.array(rows)
    try:
        return EvacScenario(width, height, data[:, :2], data[:, 2], time_formula)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

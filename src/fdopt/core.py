"""Core FDO/IFDO iteration engine.

Scout bees move by adding a pace vector to their position.  The pace is
steered by a fitness weight (ratio of the global best fitness to the
scout's own fitness) and, in IFDO mode, by alignment/cohesion terms
computed over the scout's neighborhood.  All randomness flows through a
single seeded ``numpy.random.Generator`` so a run is fully reproducible.
``run`` advances one swarm; ``run_many`` advances several runs that differ
only in their seed together, each with the bits ``run`` gives it.
"""

import time
from dataclasses import dataclass, replace
from math import gamma, isfinite, pi, sin
from numbers import Integral, Real

import numpy as np

FDO = "fdo"
IFDO = "ifdo"
MODES = (FDO, IFDO)
WF_SCOPES = ("scout", "swarm")  # weight-factor scopes, the default first

# stability index of the heavy-tailed step sampler
LEVY_BETA = 1.5
# scale applied to raw heavy-tailed draws before clamping into [-1, 1]
LEVY_SCALE = 0.01
# tolerance for the fw == 0 / fw == 1 branch tests
FW_TOL = 1e-12
# cohesion components smaller than this contribute nothing to the proposal
COHESION_TOL = 1e-12
# scale of the numerator normal in Mantegna's algorithm for LEVY_BETA
MANTEGNA_SIGMA = (
    gamma(1.0 + LEVY_BETA) * sin(pi * LEVY_BETA / 2.0)
    / (gamma((1.0 + LEVY_BETA) / 2.0) * LEVY_BETA * 2.0 ** ((LEVY_BETA - 1.0) / 2.0))
) ** (1.0 / LEVY_BETA)


@dataclass
class Bounds:
    """Box bounds of a search space."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.ndim != 1 or self.lower.size == 0 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be non-empty vectors of the same shape")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("every lower bound must be strictly below its upper bound")

    @property
    def dimension(self):
        return self.lower.size


@dataclass
class NeighborhoodContext:
    """Alignment/cohesion of a scout's neighborhood within radius ``nl``."""

    nl: float
    neighbor_count: int
    alignment: np.ndarray
    cohesion: np.ndarray


def _require_int(name, value, low):
    """Raise ValueError unless ``value`` is an integer, not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_choice(name, value, choices):
    """Raise ValueError unless ``value`` is one of ``choices``, also for an unhashable one."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass
class RunConfig:
    population: int = 30
    iterations: int = 500
    mode: str = IFDO
    fdo_wf: float = 0.0
    seed: int = 0
    record_positions: bool = False
    wf_scope: str = WF_SCOPES[0]

    def __post_init__(self):
        _require_int("population", self.population, 1)
        _require_int("iterations", self.iterations, 1)
        _require_int("seed", self.seed, 0)
        _require_choice("mode", self.mode, MODES)
        _require_choice("wf_scope", self.wf_scope, WF_SCOPES)
        _require_choice("record_positions", self.record_positions, (False, True))
        wf = self.fdo_wf
        if isinstance(wf, bool) or not isinstance(wf, Real) or not 0.0 <= wf <= 1.0:
            raise ValueError(f"fdo_wf must be a real number in [0, 1], got {wf!r}")


@dataclass
class SwarmState:
    """Full optimizer state for one run.

    Positions, paces and fitness are stored as arrays indexed by scout.
    """

    positions: np.ndarray  # (p, d)
    paces: np.ndarray  # (p, d)
    fitness: np.ndarray  # (p,)
    global_best_position: np.ndarray
    global_best_fitness: float
    weight_factors: np.ndarray  # (p,), all equal in swarm scope
    mode: str
    rng: np.random.Generator
    wf_scope: str = WF_SCOPES[0]

    @property
    def population(self):
        return self.positions.shape[0]


@dataclass
class RunRecord:
    """Trace of a single run.

    ``wall_time_s`` is the run's wall time; a run of a lockstep batch
    (``run_many``) gets its share, the batch's wall time divided by the
    number of runs.
    """

    trace: np.ndarray  # per-iteration global best, shape (iterations,)
    best_position: np.ndarray
    best_fitness: float
    wall_time_s: float
    positions: np.ndarray | None = None  # (iterations, p, d) when recorded


def levy_raw(rng, size):
    """Raw Mantegna heavy-tailed draws with stability index ``LEVY_BETA``."""
    u = rng.normal(0.0, MANTEGNA_SIGMA, size=size)
    v = rng.normal(0.0, 1.0, size=size)
    return u / np.abs(v) ** (1.0 / LEVY_BETA)


def levy_random(rng, size):
    """Heavy-tailed random values scaled and clamped into [-1, 1]."""
    return (LEVY_SCALE * levy_raw(rng, size)).clip(-1.0, 1.0)


def compute_fitness_weight(best_fitness, current_fitness, wf, mode):
    """Fitness weight steering the pace magnitude.

    FDO subtracts the weight factor unconditionally; IFDO only subtracts
    it when the raw ratio exceeds it.  A zero current fitness short-circuits
    to 0 to avoid dividing by zero.
    """
    if current_fitness == 0.0:
        return 0.0
    ratio = abs(best_fitness / current_fitness)
    return ratio - wf if mode == FDO or ratio > wf else ratio


def _walks(fw):
    """Whether the fitness weight ``fw`` sends its scout on a random walk: fw at 0 or 1."""
    return abs(fw) < FW_TOL or abs(fw - 1.0) < FW_TOL


def compute_pace(position, global_best_position, fw, r, rng):
    """Movement vector for one scout.

    With fw at 0 or 1 the scout random-walks: each coordinate is scaled by
    a fresh heavy-tailed draw.  Otherwise the scout moves along the line to
    the global best, scaled by fw, with the sign set by ``r``.
    """
    position = np.asarray(position, dtype=float)
    if _walks(fw):
        return position * levy_random(rng, size=position.size)
    direction = position - np.asarray(global_best_position, dtype=float)
    return direction * (-fw if r < 0.0 else fw)


def neighbor_landscape(bounds):
    """Neighbor radius: the dominant box extent, max(upper - lower), over 2π."""
    return float(np.max(bounds.upper - bounds.lower)) / (2.0 * np.pi)


def neighborhood(scout_index, swarm, nl):
    """Alignment and cohesion of the scouts within radius ``nl``.

    Distance is Euclidean between positions.  With no neighbors both
    vectors are zero, which makes the IFDO proposal collapse to the FDO one.
    """
    own = swarm.positions[scout_index]
    deltas = swarm.positions - own
    dist = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    mask = dist <= nl
    mask[scout_index] = False
    count = int(np.count_nonzero(mask))
    if count == 0:
        zero = np.zeros_like(own)
        return NeighborhoodContext(nl, 0, zero, zero.copy())
    # sum / count is exactly what .mean(axis=0) computes, minus its overhead
    alignment = swarm.paces[mask].sum(axis=0) / count
    cohesion = swarm.positions[mask].sum(axis=0) / count - own
    return NeighborhoodContext(nl, count, alignment, cohesion)


def propose_position(position, pace, ctx, mode):
    """Candidate position: add pace, plus alignment/cohesion in IFDO mode."""
    position = np.asarray(position, dtype=float)
    candidate = position + pace
    if mode == IFDO and ctx is not None and ctx.neighbor_count > 0:
        safe = np.abs(ctx.cohesion) >= COHESION_TOL
        extra = np.zeros_like(candidate)
        np.divide(ctx.alignment, ctx.cohesion, out=extra, where=safe)
        candidate = candidate + extra
    return candidate


def enforce_bounds(position, bounds, rng):
    """Repair out-of-box coordinates.

    A violated coordinate is replaced by the crossed boundary scaled by a
    fresh uniform draw; a final clamp guarantees feasibility for boxes where
    the scaled boundary itself leaves the box.

    That clamp biases repairs on boxes that do not contain zero: with
    ``lower > 0`` (ANTENNA, EVAC) every lower-side repair lands exactly on
    ``lower``, and with ``upper < 0`` every upper-side repair lands exactly
    on ``upper``.  The rule itself is kept unchanged.

    Evaluation order: nothing is drawn unless some coordinate lies outside
    the box (a NaN coordinate never does).  Otherwise one ``rng.random(k)``
    call draws the uniforms of the k violated coordinates in index order;
    the clamp then runs once over the whole vector.
    """
    out = np.array(position, dtype=float)
    above = out > bounds.upper
    crossed = above | (out < bounds.lower)
    if crossed.any():
        _repair(out, crossed, above, bounds, rng)
    return out


def _repair(out, crossed, above, bounds, rng):
    """``enforce_bounds``' repair of the vector ``out`` in place, given its
    ``crossed`` coordinates and those of them ``above`` the box."""
    lb, ub = bounds.lower, bounds.upper
    out[crossed] = np.where(above, ub, lb)[crossed] * rng.random(np.count_nonzero(crossed))
    out.clip(lb, ub, out=out)


def update_weight_factor(wf, mode, rng):
    """Shrink a scout's weight factor after an accepted IFDO move."""
    if mode == IFDO:
        return wf * rng.random()
    return wf


def init_population(config, objective):
    """Uniformly seeded swarm with zero paces and evaluated fitness."""
    bounds = objective.bounds
    d = bounds.dimension
    rng = np.random.default_rng(config.seed)
    positions = rng.uniform(bounds.lower, bounds.upper, size=(config.population, d))
    paces = np.zeros_like(positions)
    fitness = np.array(
        [_safe_fitness(objective, positions[i], rng) for i in range(config.population)]
    )
    if config.mode == FDO:
        weight_factors = np.full(config.population, float(config.fdo_wf))
    elif config.wf_scope == "swarm":
        weight_factors = np.full(config.population, rng.random())
    else:
        weight_factors = rng.random(config.population)
    best = int(np.argmin(fitness))
    return SwarmState(
        positions=positions,
        paces=paces,
        fitness=fitness,
        global_best_position=positions[best].copy(),
        global_best_fitness=float(fitness[best]),
        weight_factors=weight_factors,
        mode=config.mode,
        rng=rng,
        wf_scope=config.wf_scope,
    )


def _safe_fitness(objective, x, rng):
    value = objective.evaluate(x, rng)
    return value if isfinite(value) else np.inf


def step(swarm, objective):
    """Advance the swarm by one iteration (in place) and return it.

    Each scout proposes a move; if it does not improve, the scout retries
    with its previously saved pace, and otherwise stays put.  The global
    best is refreshed after every accepted move.
    """
    bounds = objective.bounds
    rng = swarm.rng
    ifdo = swarm.mode == IFDO
    nl = neighbor_landscape(bounds) if ifdo else 0.0
    for i in range(swarm.population):
        current_fitness = float(swarm.fitness[i])
        # only the sign of r is read, and it is the sign of Mantegna's
        # numerator normal; the denominator normal is drawn all the same
        r = rng.standard_normal(2)[0]
        wf = float(swarm.weight_factors[i])
        fw = compute_fitness_weight(swarm.global_best_fitness, current_fitness, wf, swarm.mode)
        ctx = neighborhood(i, swarm, nl) if ifdo else None
        fresh = compute_pace(swarm.positions[i], swarm.global_best_position, fw, r, rng)
        # first try with the fresh pace, second chance with the saved one
        for pace in (fresh, swarm.paces[i]):
            candidate = enforce_bounds(
                propose_position(swarm.positions[i], pace, ctx, swarm.mode), bounds, rng
            )
            new_fitness = _safe_fitness(objective, candidate, rng)
            if new_fitness < current_fitness:
                swarm.positions[i] = candidate
                swarm.paces[i] = pace
                swarm.fitness[i] = new_fitness
                new_wf = update_weight_factor(wf, swarm.mode, rng)
                if swarm.wf_scope == "swarm":
                    swarm.weight_factors[:] = new_wf
                else:
                    swarm.weight_factors[i] = new_wf
                if new_fitness < swarm.global_best_fitness:
                    swarm.global_best_fitness = new_fitness
                    swarm.global_best_position = candidate
                break
    return swarm


def run(config, objective):
    """Initialize a swarm and advance it for ``config.iterations`` steps."""
    start = time.perf_counter()
    swarm = init_population(config, objective)
    trace = np.empty(config.iterations)
    history = (
        np.empty((config.iterations, config.population, objective.bounds.dimension))
        if config.record_positions
        else None
    )
    for t in range(config.iterations):
        step(swarm, objective)
        trace[t] = swarm.global_best_fitness
        if history is not None:
            history[t] = swarm.positions
    return RunRecord(
        trace=trace,
        best_position=swarm.global_best_position.copy(),
        best_fitness=float(swarm.global_best_fitness),
        wall_time_s=time.perf_counter() - start,
        positions=history,
    )


class _Lockstep:
    """R runs of one configuration, differing only in their seed, as (R, p, d) state.

    Scout i of every run moves in one ``scout`` call, and the scouts of a
    run move in order, as in ``step``.  Each run keeps its own generator
    and draws in ``step``'s order: ``r``, the random walk's heavy-tailed
    draws, then per try the bound repair, the noise and, on an accept, the
    weight-factor draw.  Only the arithmetic across runs is batched; the
    per-scout scalars (fitness, weight factors, global bests) are kept as
    the Python floats ``step`` computes with.
    """

    def __init__(self, swarms, objective):
        self.objective = objective
        self.mode, self.wf_scope = swarms[0].mode, swarms[0].wf_scope
        self.rngs = [s.rng for s in swarms]
        # positions and paces side by side, so one masked sum serves both
        self.state = np.concatenate(
            [np.stack([s.positions for s in swarms]), np.stack([s.paces for s in swarms])], axis=2
        )
        d = swarms[0].positions.shape[1]
        self.positions, self.paces = self.state[..., :d], self.state[..., d:]
        self.fitness = [s.fitness.tolist() for s in swarms]
        self.weight_factors = [s.weight_factors.tolist() for s in swarms]
        self.best_positions = np.stack([s.global_best_position for s in swarms])
        self.best_fitness = [s.global_best_fitness for s in swarms]
        # one bounds row per run: comparing equal shapes skips numpy's broadcasting
        bounds = objective.bounds
        self.lower, self.upper = (np.tile(b, (len(swarms), 1)) for b in (bounds.lower, bounds.upper))
        self.nl = neighbor_landscape(bounds) if self.mode == IFDO else None

    def proposal_terms(self, i):
        """What ``propose_position`` adds to position + pace for scout ``i``
        in IFDO, one row per run: alignment / cohesion of its
        ``neighborhood``, 0.0 where the cohesion is below ``COHESION_TOL``,
        and -0.0, which adds nothing, for a run without neighbors.

        Each mean is the sum over the neighbors in scout order, divided by
        the count.  For d >= 2 non-neighbors are filled with -0.0, which
        leaves every sum's bits alone.  For d = 1 the summed axis is
        contiguous and numpy sums it pairwise, so a fill would regroup the
        additions; there each run sums its own neighbor rows.  Those rows
        would give the same bits for every d, but the fill is faster: 1.41x
        on the sphere-ifdo benchmark, 1.15x on rastrigin-cli-export (both
        d = 10, 4 runs, 2-core VM; ``BENCH_13.json``, ``fill_vs_compacted``).
        """
        positions, state = self.positions, self.state
        runs, p, d = positions.shape
        own = positions[:, i]
        deltas = (positions - own[:, None]).reshape(runs * p, d)
        mask = (np.sqrt(np.einsum("ij,ij->i", deltas, deltas)) <= self.nl).reshape(runs, p)
        mask[:, i] = False
        count = mask.sum(axis=1)
        if d > 1:
            sums = np.where(mask[..., None], state, -0.0).sum(axis=1)
        else:
            sums = np.array([(s[m, 0].sum(), s[m, 1].sum()) for s, m in zip(state, mask)])
        means = sums / np.maximum(count, 1)[:, None]
        cohesion = means[:, :d] - own
        extra = np.zeros((runs, d))
        np.divide(means[:, d:], cohesion, out=extra, where=np.abs(cohesion) >= COHESION_TOL)
        if 0 in count.tolist():
            extra[count == 0] = -0.0
        return extra

    def scout(self, i):
        """Move scout ``i`` of every run: ``step``'s loop body, batched over runs."""
        mode, rngs, bests = self.mode, self.rngs, self.best_fitness
        best_positions = self.best_positions
        here = self.positions[:, i]
        current = [f[i] for f in self.fitness]
        wfs = [w[i] for w in self.weight_factors]
        signed, walks = [], []
        for k, rng in enumerate(rngs):
            r = rng.standard_normal(2)[0]
            fw = compute_fitness_weight(bests[k], current[k], wfs[k], mode)
            signed.append(-fw if r < 0.0 else fw)
            if _walks(fw):
                walks.append((k, compute_pace(here[k], best_positions[k], fw, r, rng)))
        fresh = (here - best_positions) * np.array(signed)[:, None]
        for k, pace in walks:
            fresh[k] = pace
        extra = None if self.nl is None else self.proposal_terms(i)
        rejected = self._try(i, range(len(rngs)), here + fresh, fresh, extra, current, wfs)
        if rejected:
            # basic indexing while every run is left, which is the common case
            rows = slice(None) if len(rejected) == len(rngs) else rejected
            saved = self.paces[rows, i]
            extra = None if extra is None else extra[rows]
            self._try(i, rejected, here[rows] + saved, saved, extra, current, wfs)

    def _try(self, i, runs, candidates, paces, extra, current, wfs):
        """One try of scout ``i`` in ``runs``: propose, repair, evaluate, accept.

        ``candidates`` holds position + pace, to which the IFDO ``extra``
        is added.  Returns the runs that rejected their candidate.
        """
        if extra is not None:
            candidates += extra
        bounds, rngs, n = self.objective.bounds, self.rngs, len(candidates)
        above = candidates > self.upper[:n]
        crossed = above | (candidates < self.lower[:n])
        for j, out in enumerate(crossed.any(axis=1).tolist()):
            if out:
                _repair(candidates[j], crossed[j], above[j], bounds, rngs[runs[j]])
        values = self.objective.evaluate_many(candidates, [rngs[k] for k in runs])
        rejected = []
        for j, k in enumerate(runs):
            value = values[j] if isfinite(values[j]) else np.inf
            if not value < current[k]:
                rejected.append(k)
                continue
            self.positions[k, i] = candidates[j]
            self.paces[k, i] = paces[j]
            self.fitness[k][i] = value
            new_wf = update_weight_factor(wfs[k], self.mode, rngs[k])
            if self.wf_scope == "swarm":
                self.weight_factors[k] = [new_wf] * len(self.weight_factors[k])
            else:
                self.weight_factors[k][i] = new_wf
            if value < self.best_fitness[k]:
                self.best_fitness[k] = value
                self.best_positions[k] = candidates[j]
        return rejected


def run_many(configs, objective):
    """Run ``configs``, which differ only in their seed, in lockstep; one RunRecord each.

    Record k equals ``run(configs[k], objective)`` bit for bit.  Each
    ``wall_time_s`` is the run's share, the batch's wall time divided by
    the number of runs.  With ``record_positions`` the records' positions
    are views into one (R, iterations, p, d) block.
    """
    if not configs:
        raise ValueError("run_many needs at least one config")
    first = configs[0]
    if any(replace(c, seed=first.seed) != first for c in configs):
        raise ValueError("run_many needs configs that differ only in their seed")
    start = time.perf_counter()
    batch = _Lockstep([init_population(c, objective) for c in configs], objective)
    runs, p, d = batch.positions.shape
    trace = np.empty((runs, first.iterations))
    history = np.empty((runs, first.iterations, p, d)) if first.record_positions else None
    for t in range(first.iterations):
        for i in range(p):
            batch.scout(i)
        trace[:, t] = batch.best_fitness
        if history is not None:
            history[:, t] = batch.positions
    share = (time.perf_counter() - start) / runs
    return [
        RunRecord(
            trace=trace[k],
            best_position=batch.best_positions[k].copy(),
            best_fitness=float(batch.best_fitness[k]),
            wall_time_s=share,
            positions=None if history is None else history[k],
        )
        for k in range(runs)
    ]


def first_best_iteration(trace):
    """1-based iteration at which the final best value was first reached."""
    trace = np.asarray(trace)
    return int(np.argmax(trace <= trace[-1])) + 1

"""Core FDO/IFDO iteration engine.

Scout bees move by adding a pace vector to their position.  The pace is
steered by a fitness weight (ratio of the global best fitness to the
scout's own fitness) and, in IFDO mode, by alignment/cohesion terms
computed over the scout's neighborhood.  All randomness flows through a
single seeded ``numpy.random.Generator`` so a run is fully reproducible.
``run`` advances one swarm by ``step``; ``run_many`` advances one swarm per
seed together, in ``_Lockstep``, each with the bits ``run`` gives it.  Both
share one run loop, ``_drive``, and one accept rule, ``_accept``.
"""

import time
from dataclasses import dataclass, replace
from math import gamma, isfinite, isnan, pi, sin
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
    """Box bounds of a search space.

    ``lower`` and ``upper`` are read-only float copies of the vectors
    passed in, so the box cannot change after it is checked; the caller's
    arrays stay writable.  ``straddles_zero``, worked out once here and
    not a field, is whether every lower bound is < 0 and every upper
    bound > 0: on such a box ``enforce_bounds`` skips its final clamp.
    Two boxes are equal when their bounds are equal value by value.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Bounds):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)

    def __post_init__(self):
        self.lower = np.array(self.lower, dtype=float)
        self.upper = np.array(self.upper, dtype=float)
        if self.lower.ndim != 1 or self.lower.size == 0 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be non-empty vectors of the same shape")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        self.lower.flags.writeable = self.upper.flags.writeable = False
        self.straddles_zero = bool((self.lower < 0.0).all() and (self.upper > 0.0).all())

    @property
    def dimension(self):
        return self.lower.size


@dataclass
class NeighborhoodContext:
    """Alignment/cohesion of a scout's neighborhood, from ``neighborhood``."""

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
    """Full optimizer state for one run, indexed by scout.

    ``fitness`` holds finite values or +inf: ``init_population`` maps a
    non-finite initial value to +inf, and ``_accept`` is given only finite
    ones.  It writes ``global_best_position`` in place, so that must not
    share memory with ``positions``.  In ``_Lockstep`` the arrays are row
    views of its blocks, and fitness and weight factors lists of floats.
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
    """Trace of a single run; ``best_fitness`` is the trace's last entry.

    ``wall_time_s`` is the run's share of the wall time of the run loop
    that made it: all of it for ``run``, the batch's wall time divided by
    the number of runs for ``run_many``.
    """

    trace: np.ndarray  # per-iteration global best, shape (iterations,)
    best_position: np.ndarray
    wall_time_s: float
    positions: np.ndarray | None = None  # (iterations, p, d) when recorded

    @property
    def best_fitness(self):
        return float(self.trace[-1])


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
    to 0 to avoid dividing by zero, and so does a NaN ratio, inf / inf while
    no scout has a finite value yet, which sends the scout on a random walk
    instead of a NaN pace.
    """
    if current_fitness == 0.0:
        return 0.0
    ratio = abs(best_fitness / current_fitness)
    if isnan(ratio):
        return 0.0
    return ratio - wf if mode == FDO or ratio > wf else ratio


def _walks(fw):
    """Whether the fitness weight ``fw`` sends its scout on a random walk: fw at 0 or 1."""
    return (abs(fw) < FW_TOL) | (abs(fw - 1.0) < FW_TOL)


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
        return NeighborhoodContext(0, zero, zero.copy())
    # sum / count is exactly what .mean(axis=0) computes, minus its overhead
    alignment = swarm.paces[mask].sum(axis=0) / count
    cohesion = swarm.positions[mask].sum(axis=0) / count - own
    return NeighborhoodContext(count, alignment, cohesion)


def propose_position(position, pace, ctx):
    """Candidate position: add pace, plus the alignment/cohesion of ``ctx`` (None in FDO)."""
    position = np.asarray(position, dtype=float)
    candidate = position + pace
    if ctx is not None and ctx.neighbor_count > 0:
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

    The clamp runs only on boxes that are not ``bounds.straddles_zero``,
    where some lower bound is >= 0 or some upper bound <= 0 (ANTENNA and
    EVAC).  On the others, the 29 suite objectives' boxes, it cannot change
    a bit: a
    repaired coordinate is the crossed bound times u in [0, 1), so it lies
    between a signed zero and that non-zero bound, possibly on it; an
    untouched one is inside the box or NaN, which the clamp returns as
    it is; and with no bound a signed zero, no tie can flip a sign.

    Evaluation order: nothing is drawn unless some coordinate lies outside
    the box (a NaN coordinate never does).  Otherwise one ``rng.random(k)``
    call draws the uniforms of the k violated coordinates in index order;
    the clamp, where it runs, then runs once over the whole vector.
    """
    out = np.array(position, dtype=float)
    above = out > bounds.upper
    crossed = above | (out < bounds.lower)
    count = np.count_nonzero(crossed)
    if count:
        _repair(out, crossed, above, bounds, rng.random(count))
    return out


def _repair(out, crossed, above, bounds, uniforms):
    """``enforce_bounds``' repair of ``out`` in place, a vector or a block of
    rows that each crossed the box, given its ``crossed`` coordinates, those
    ``above`` the box and a uniform for each crossed one, in C order.  Only
    crossed rows are passed, so an untouched -0.0 on a zero bound stays."""
    lb, ub = bounds.lower, bounds.upper
    out[crossed] = np.where(above, ub, lb)[crossed] * uniforms
    if not bounds.straddles_zero:
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
    fitness = np.array([objective.evaluate(positions[i], rng) for i in range(config.population)])
    fitness[~np.isfinite(fitness)] = np.inf
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


def step(swarm, objective):
    """Advance the swarm by one iteration (in place) and return it.

    Each scout proposes a move; if it does not improve, the scout retries
    with its previously saved pace, and otherwise stays put.  A candidate
    with a finite value below the scout's fitness is taken by ``_accept``.
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
        fw = compute_fitness_weight(
            swarm.global_best_fitness, current_fitness, float(swarm.weight_factors[i]), swarm.mode
        )
        ctx = neighborhood(i, swarm, nl) if ifdo else None
        fresh = compute_pace(swarm.positions[i], swarm.global_best_position, fw, r, rng)
        # first try with the fresh pace, second chance with the saved one
        for pace in (fresh, swarm.paces[i]):
            candidate = enforce_bounds(propose_position(swarm.positions[i], pace, ctx), bounds, rng)
            value = objective.evaluate(candidate, rng)
            if isfinite(value) and value < current_fitness:
                _accept(swarm, i, candidate, pace, value)
                break
    return swarm


def _accept(swarm, i, candidate, pace, value):
    """The accept rule of ``step`` and ``_Lockstep._take``, which pass only a
    finite ``value`` below scout ``i``'s fitness: the scout takes
    ``candidate``, its ``pace`` and ``value``, IFDO shrinks its weight factor
    (every scout's in swarm scope), and the global best is refreshed in place.
    """
    swarm.positions[i] = candidate
    swarm.paces[i] = pace
    swarm.fitness[i] = value
    new_wf = update_weight_factor(swarm.weight_factors[i], swarm.mode, swarm.rng)
    if swarm.wf_scope == "swarm":
        # a list assignment, since the lockstep keeps the weight factors as a list
        swarm.weight_factors[:] = [new_wf] * len(swarm.weight_factors)
    else:
        swarm.weight_factors[i] = new_wf
    if value < swarm.global_best_fitness:
        swarm.global_best_fitness = value
        swarm.global_best_position[:] = candidate


def run(config, objective):
    """Initialize a swarm and advance it for ``config.iterations`` steps."""
    return _drive(config, [config.seed], objective, lockstep=False)[0]


class _Lockstep:
    """R runs of one configuration, differing only in their seed, advanced together.

    The runs are their own ``SwarmState``s, whose positions, paces and
    global best positions become row views of (R, p, 2d) and (R, d)
    blocks, and whose fitness and weight factors become lists of the
    Python floats ``step`` computes with.  Scout i of every run moves in
    one ``scout`` call, and the scouts of a run move in order, as in
    ``step``.  Each run draws from its own generator (``rngs[k]``) in
    ``step``'s order: ``r``, the random walk's heavy-tailed draws, the
    first try's bound repair and noise, then either the accept's
    weight-factor draw or the second try's repair, noise and accept draw.
    Only the arithmetic across runs is batched; an accept is ``_accept``.
    ``scout`` proposes both tries of every run at once, and a ``batched``
    objective evaluates them in one call when no second try needs a repair.

    ``accepts`` counts the accepts of all runs.  A scout's IFDO
    ``proposal_terms`` are kept, read-only, with the count they were
    computed at, and reused until any run of the batch accepts a move.
    After an iteration in which no run accepted, or none after the scout
    its sweep rolled back to, ``_drive`` first tries the next one as one
    ``sweep`` over every scout; never at iteration 0, nor for a noisy
    objective.  If some run accepts at scout m, the sweep keeps scouts
    0 .. m - 1, ``scout`` makes scout m, and a second sweep tries scouts
    m + 1 .. p - 1; ``scout`` makes the scouts from where that one stops.
    The sweeps of a quiet stretch share one ``chain``, kept like the terms
    with the count it was built at, which computes the terms of every
    scout in one call, and evaluate no try again that an earlier sweep of
    the chain found to reject.

    ``memo`` is the pair of dicts, this iteration's and the last one's, in
    which ``ObjectiveSpec.evaluate_many`` keeps the values of an evaluator
    that is neither noisy nor batched; scout 0, or a sweep from scout 0
    that holds or keeps scouts, starts a new pair, so it holds at most two
    iterations of candidates.  A scout
    that rejected both tries keeps its position and saved pace, so its next
    second try repeats the same candidate bits, which the memo does not
    evaluate again.  Such an evaluator draws nothing and its value depends
    on the candidate's bits alone, so every bit and every draw stays as in
    ``step``.
    """

    def __init__(self, swarms, objective):
        self.objective, self.swarms = objective, swarms
        # positions and paces side by side, so one masked sum serves both
        self.state = np.concatenate(
            [np.stack([s.positions for s in swarms]), np.stack([s.paces for s in swarms])], axis=2
        )
        self.positions, self.paces = np.split(self.state, 2, axis=2)
        self.best_positions = np.stack([s.global_best_position for s in swarms])
        for s, x, v, best in zip(swarms, self.positions, self.paces, self.best_positions):
            s.positions, s.paces, s.global_best_position = x, v, best
            # a list read takes a quarter of the time of float(array[i])
            s.fitness, s.weight_factors = s.fitness.tolist(), s.weight_factors.tolist()
        # one bounds row per try of each run: comparing equal shapes skips
        # numpy's broadcasting
        bounds, rows = objective.bounds, (2 * len(swarms), 1)
        self.lower, self.upper = (np.tile(b, rows) for b in (bounds.lower, bounds.upper))
        self.nl = neighbor_landscape(bounds) if swarms[0].mode == IFDO else None
        # per scout: the accept count its proposal terms were computed at, and the terms
        self.accepts, self.terms = 0, [(-1, None)] * swarms[0].population
        self.chain = (-1,)  # what a chain of sweeps shares, from ``_chain``
        self.memo = ({}, {})
        self.rngs, self.batched = [s.rng for s in swarms], objective.batched

    def proposal_terms(self, first, stop):
        """What ``propose_position`` adds to position + pace in IFDO for each
        scout i of the stretch ``first`` .. ``stop`` - 1, as an (R, n, d)
        block: alignment / cohesion of its ``neighborhood``, 0.0 where the
        cohesion is below ``COHESION_TOL``, and -0.0, which adds nothing,
        for a run without neighbors.  ``scout`` asks for one scout, ``_chain``
        for all p at once; a scout's terms have the same bits either way.

        Each mean is the sum over the neighbors in scout order, divided by
        the count.  For d >= 2 non-neighbors are filled with -0.0, which
        leaves every sum's bits alone.  For d = 1 the summed axis is
        contiguous and numpy sums it pairwise, so a fill would regroup the
        additions; there each run sums its own neighbor rows.  Those rows
        would give the same bits for every d, but the fill is faster: 1.41x
        on the sphere-ifdo benchmark, 1.15x on rastrigin-cli-export (both
        d = 10, 4 runs, 2-core VM; ``BENCH_13.json``, ``fill_vs_compacted``).

        The terms read only ``nl`` and the positions and paces, which only
        ``_accept`` writes, so ``scout`` reuses them until any run of the
        batch accepts: terms computed again from the same inputs would have
        the same bits.
        """
        positions, state = self.positions, self.state
        runs, p, d = positions.shape
        own = positions[:, first:stop]
        deltas = (positions[:, None] - own[:, :, None]).reshape(-1, d)
        mask = (np.sqrt(np.einsum("ij,ij->i", deltas, deltas)) <= self.nl).reshape(runs, -1, p, 1)
        del deltas  # for all p scouts it is as large as half the filled block below
        # scout first + j is no neighbor of itself: row j, column first + j
        mask.reshape(runs, -1)[:, first::p + 1] = False
        count = mask.sum(axis=2)
        if d > 1:
            sums = np.where(mask, state[:, None], -0.0).sum(axis=2)
        else:
            sums = np.array([(s[m, 0].sum(), s[m, 1].sum()) for s, m in
                             zip(state.repeat(stop - first, axis=0), mask.reshape(-1, p))])
            sums = sums.reshape(runs, -1, 2)
        means = sums / np.maximum(count, 1)
        cohesion = means[..., :d] - own
        extra = np.zeros(own.shape)
        np.divide(means[..., d:], cohesion, out=extra, where=np.abs(cohesion) >= COHESION_TOL)
        if 0 in count.ravel().tolist():
            np.copyto(extra, -0.0, where=count == 0)
        return extra

    def scout(self, i):
        """Move scout ``i`` of every run: ``step``'s loop body, batched over runs.

        Both tries are proposed at once, in one (2R, d) block: row k is run
        k's first try, position + fresh pace, and row R + k its second,
        position + saved pace, each plus the same IFDO terms.  One bounds
        test covers the block, and the first-try rows are repaired.  A
        ``batched`` objective (``ObjectiveSpec.batched``) gets the whole
        block in one ``evaluate_many`` call, unless some second-try row
        crossed the box: its repair draws, and only a run that rejected its
        first try may draw it.  Any other objective, or a block with such a
        row, is evaluated in two calls: the first tries, then the repaired
        second tries of the runs that rejected theirs.  Either way each run
        draws in ``step``'s order: ``r``, the walk, the first repair, the
        noise, then the accept draw, or the second repair, the noise and the
        accept draw.  A batched kernel draws nothing and keeps no state
        (``objective.over_last_axis``), so the second tries it evaluates for
        runs that accepted their first change nothing.
        """
        swarms, best_positions, objective = self.swarms, self.best_positions, self.objective
        runs = len(swarms)
        if i == 0:
            self.memo = ({}, self.memo[0])
        here = self.positions[:, i]
        signed, walks = [], []
        for k, s in enumerate(swarms):
            r = s.rng.standard_normal(2)[0]
            fw = compute_fitness_weight(s.global_best_fitness, s.fitness[i],
                                        s.weight_factors[i], s.mode)
            signed.append(-fw if r < 0.0 else fw)
            if _walks(fw):
                walks.append((k, compute_pace(here[k], best_positions[k], fw, r, s.rng)))
        # run k's fresh pace in row k, its saved pace in row R + k
        fresh = (here - best_positions) * np.array(signed)[:, None]
        paces = np.concatenate((fresh, self.paces[:, i]))
        for k, pace in walks:
            paces[k] = pace
        extra = self._terms(i)
        candidates = here + paces.reshape(2, runs, -1)
        if extra is not None:
            candidates += extra
        candidates = candidates.reshape(paces.shape)
        bounds, rngs = objective.bounds, self.rngs
        above = candidates > self.upper
        crossed = above | (candidates < self.lower)
        counts = crossed.sum(axis=1).tolist()
        for k in range(runs):
            if counts[k]:
                _repair(candidates[k], crossed[k], above[k], bounds, rngs[k].random(counts[k]))
        fused = self.batched and not any(counts[runs:])
        if fused:
            values = objective.evaluate_many(candidates, rngs * 2)
        else:
            values = objective.evaluate_many(candidates[:runs], rngs, self.memo)
        rejected = self._take(i, range(runs), 0, candidates, paces, values)
        if not rejected:
            return
        if fused:
            values = [values[runs + k] for k in rejected]
        else:
            for k in rejected:
                row = runs + k
                if counts[row]:
                    _repair(candidates[row], crossed[row], above[row], bounds,
                            rngs[k].random(counts[row]))
            # basic indexing while every run is left, which is the common case
            rows = slice(runs, None) if len(rejected) == runs else [runs + k for k in rejected]
            values = objective.evaluate_many(
                candidates[rows], [rngs[k] for k in rejected], self.memo
            )
        self._take(i, rejected, runs, candidates, paces, values)

    def _terms(self, i):
        """Scout ``i``'s kept IFDO ``proposal_terms``, computed again when some
        run has accepted since they were kept; None in FDO."""
        seen, extra = self.terms[i]
        if self.nl is not None and seen != self.accepts:
            extra = self.proposal_terms(i, i + 1)[:, 0]
            extra.flags.writeable = False
            self.terms[i] = self.accepts, extra
        return extra

    def sweep(self, first=0):
        """Scouts ``first`` .. p - 1 of every run at once, on the guess that
        none of them accepts in any run.  Returns the first scout still to
        make: p if the guess held; else the first scout m at which some run
        accepts, with every generator where ``scout(m)`` expects it and
        nothing else changed, so that ``scout`` can make scout m.

        While nothing is accepted no position, pace, fitness, weight factor
        or global best changes.  So the sweeps of one quiet stretch share
        one ``_chain``, kept with the ``accepts`` it was built at, as the
        IFDO terms are, and each sweep makes only the draws of ``_draws``.
        It copies each scout's first try, +fw or -fw by the sign of its
        ``r``, and its second try out of the chain's block into (R, n, 2, d)
        tries, n = p - ``first``, puts each walk in place of its first try,
        and repairs the crossed rows in one ``_repair`` call, their uniforms
        in (run, scout, try, coordinate) order.  A try of the block that is
        neither crossed nor walked has the same bits in every sweep of the
        chain, and so the same value: once a sweep that held has evaluated
        it, it is known to reject.  Every other row goes to one
        ``evaluate_many`` call; with no such row there is no call.  A sweep
        from scout 0 starts a new memo pair, as ``scout(0)`` would; a later
        one adds to this iteration's.

        If a value is finite and below its scout's fitness, the sweep is
        rolled back from the first scout m at which some run accepts, since
        ``scout`` moves all runs together.  The generators are restored and
        the draws of scouts ``first`` .. m - 1 made again; those scouts
        reject in every run, so ``scout`` would change nothing else.  The
        sweep's rows are not kept, and with ``first`` = 0 < m the memo pair
        is rotated as ``scout(0)`` would.
        """
        runs, p, d = self.positions.shape
        if self.chain[0] != self.accepts:
            self.chain = self._chain()
        *_, block, fitness, fixed, known = self.chain
        saved = [rng.bit_generator.state for rng in self.rngs]
        negative, walked, uniforms = self._draws(first, p)
        # block rows of the tries: row 2j is the j-th swept scout's first try, 2j + 1 its second
        swept = np.arange(0, runs * p, p)[:, None] + np.arange(first, p)
        picks = np.add.outer(3 * swept.ravel(), (0, 2))
        picks[:, 0] += negative
        picks = picks.ravel()
        tries = block.reshape(-1, d)[picks]
        for row, walk in walked:
            tries[row] = walk
        if uniforms:
            bounds = self.objective.bounds
            above = tries > bounds.upper
            crossed = above | (tries < bounds.lower)
            hit = crossed.any(axis=1)
            repaired = tries[hit]
            _repair(repaired, crossed[hit], above[hit], bounds, np.concatenate(uniforms))
            tries[hit] = repaired
        new = ~known[picks]
        # a copy of this iteration's dict, so that a rollback keeps none of the sweep's rows
        this, last = self.memo
        rows, memo = tries[new], (dict(this), last) if first else ({}, this)
        # the objective is not noisy, so no row draws from a generator
        values = np.array(self.objective.evaluate_many(rows, [None] * len(rows), memo)
                          if len(rows) else [])
        accepted = np.isfinite(values) & (values < fitness[picks[new]])
        if not accepted.any():
            known[picks] |= fixed[picks]
            self.memo = memo
            return p
        for rng, state in zip(self.rngs, saved):
            rng.bit_generator.state = state
        m = first + int((np.flatnonzero(new)[accepted] // 2 % (p - first)).min())
        self._draws(first, m)
        if first == 0 < m:
            self.memo = ({}, this)
        return m

    def _chain(self):
        """What the sweeps of a quiet stretch share, with the ``accepts`` it
        was built at: per run and scout its fitness weight, whether it
        walks, and how many coordinates of each try of the block cross the
        box; the read-only (R, p, 3, d) block of each scout's first try with
        +fw and with -fw, plus its IFDO terms, and its second try; and, flat
        over the block, each try's scout fitness, whether it is neither
        crossed nor walked, and whether it is known to reject.  The IFDO
        terms of all p scouts come from one ``proposal_terms`` call, and
        each scout keeps its read-only slice as ``scout`` keeps its own."""
        swarms, here, best = self.swarms, self.positions, self.best_positions
        bounds, p = self.objective.bounds, here.shape[1]
        fws = [[compute_fitness_weight(s.global_best_fitness, f, wf, s.mode)
                for f, wf in zip(s.fitness, s.weight_factors)] for s in swarms]
        fw = np.array(fws)[..., None]
        walks = _walks(fw[..., 0])
        toward = here - best[:, None]
        block = np.stack((toward * fw, toward * -fw, self.paces), axis=2) + here[:, :, None]
        if self.nl is not None:
            terms = self.proposal_terms(0, p)
            terms.flags.writeable = False
            self.terms = [(self.accepts, terms[:, i]) for i in range(p)]
            block += terms[:, :, None]
        block.flags.writeable = False
        crossings = ((block > bounds.upper) | (block < bounds.lower)).sum(axis=3)
        fixed = crossings == 0
        fixed[..., :2] &= ~walks[..., None]
        return (self.accepts, fws, walks.tolist(), crossings.tolist(), block,
                np.repeat([s.fitness for s in swarms], 3), fixed.ravel(),
                np.zeros(fixed.size, dtype=bool))

    def _draws(self, start, stop):
        """The draws of scouts ``start`` .. ``stop`` - 1 of every run, in
        ``step``'s order, given that none accepts: ``r``, which picks the
        sign, a walk's draws in ``compute_pace``, and both repairs' uniforms
        in one ``rng.random(k1 + k2)`` call, the values of ``random(k1)``
        then ``random(k2)`` (a double takes one 64-bit word): between the
        repairs ``step`` draws nothing, as the objective is not noisy and
        the accept draw comes only with an accept.  Reads the ``chain``.
        Returns, in (run, scout) order, whether each r is negative, each
        walk as (its row in the tries of ``sweep(start)``, the walked first
        try), and the uniforms."""
        here, best, bounds = self.positions, self.best_positions, self.objective.bounds
        n = here.shape[1] - start
        _, fws, walks, crossings = self.chain[:4]
        negative, walked, uniforms = [], [], []
        for k, rng in enumerate(self.rngs):
            for i in range(start, stop):
                r = rng.standard_normal(2).item(0)
                negative.append(r < 0.0)
                # crossings of the first try with +fw, with -fw, and of the second
                counts = crossings[k][i]
                count = counts[r < 0.0] + counts[2]
                if walks[k][i]:
                    row = here[k, i] + compute_pace(here[k, i], best[k], fws[k][i], r, rng)
                    extra = self._terms(i)
                    if extra is not None:
                        row += extra[k]
                    walked.append((2 * (k * n + i - start), row))
                    crossed = (row > bounds.upper) | (row < bounds.lower)
                    count = counts[2] + np.count_nonzero(crossed)
                if count:
                    uniforms.append(rng.random(count))
        return negative, walked, uniforms

    def _take(self, i, tried, offset, candidates, paces, values):
        """The accept rule for scout ``i`` of each run k in ``tried``, whose
        try is row ``offset`` + k of ``candidates`` and ``paces``, with the
        values in the order of ``tried``.  Returns the runs that rejected."""
        rejected = []
        for k, value in zip(tried, values):
            s = self.swarms[k]
            if isfinite(value) and value < s.fitness[i]:
                _accept(s, i, candidates[offset + k], paces[offset + k], value)
                self.accepts += 1
            else:
                rejected.append(k)
        return rejected


def run_many(config, seeds, objective):
    """Run ``config`` once per seed in ``seeds``, in lockstep; one RunRecord each.

    Record k equals ``run(replace(config, seed=seeds[k]), objective)`` bit
    for bit; ``config.seed`` itself is not used.  Each ``wall_time_s`` is
    the run's share, the batch's wall time divided by the number of runs.
    With ``record_positions`` the records' positions are views into one
    (R, iterations, p, d) block.
    """
    if len(seeds) == 0:
        raise ValueError("run_many needs at least one seed")
    return _drive(config, seeds, objective, lockstep=True)


def _drive(config, seeds, objective, lockstep):
    """The run loop of ``run`` and ``run_many``: the swarm of each seed,
    advanced alone by ``step`` or with the others by ``_Lockstep``, traced
    (its positions kept in one (R, iterations, p, d) block with
    ``record_positions``) and returned as a RunRecord with its time share.
    In lockstep, for an objective that is not noisy, an iteration starts
    with ``_Lockstep.sweep`` when no run accepted in the last one, or none
    after the scout at which its sweep rolled back.  If the sweep rolls
    back at scout m, ``scout(m)`` accepts in some run and the scouts after
    it are swept once more; ``scout`` makes the scouts from the first that
    this second sweep returns: none if it held.  A rollback at the last
    scout leaves no scout to sweep again."""
    start = time.perf_counter()
    swarms = [init_population(replace(config, seed=s), objective) for s in seeds]
    batch = _Lockstep(swarms, objective) if lockstep else None
    runs, iterations = len(swarms), config.iterations
    trace = np.empty((runs, iterations))
    shape = (runs, iterations, config.population, objective.bounds.dimension)
    history = np.empty(shape) if config.record_positions else None
    p = config.population
    # whether no run accepted in the last iteration, not counting the
    # accept at the scout its first sweep rolled back to
    quiet = False
    for t in range(iterations):
        if batch is None:
            step(swarms[0], objective)
        else:
            first = batch.sweep() if quiet else 0
            if quiet and first < p:
                batch.scout(first)
                first = batch.sweep(first + 1) if first + 1 < p else p
            accepts = batch.accepts
            for i in range(first, p):
                batch.scout(i)
            quiet = batch.accepts == accepts and not objective.noisy
        trace[:, t] = [s.global_best_fitness for s in swarms]
        if history is not None:
            history[:, t] = [s.positions for s in swarms]
    share = (time.perf_counter() - start) / runs
    return [
        RunRecord(
            trace=trace[k],
            best_position=s.global_best_position.copy(),
            wall_time_s=share,
            positions=None if history is None else history[k],
        )
        for k, s in enumerate(swarms)
    ]


def first_best_iteration(trace):
    """1-based iteration at which the final best value was first reached."""
    trace = np.asarray(trace)
    return int(np.argmax(trace <= trace[-1])) + 1

"""In-memory span recorder that wraps fdopt's public functions from outside.

Every wrapped call records one span: the layer name, start and end on the
``perf_counter_ns`` clock, the index of the span that caused it (-1 for a
top-level call) and one number measured at the boundary (neighbor count,
whether a bound repair happened, whether a value was non-finite, bytes
written).  Spans live in one flat ``array`` while the workload runs and
are written out once, after it ends.  Nothing under ``src/`` is edited:
the recorder swaps module and class attributes and restores them on exit.
"""

import functools
import itertools
import math
import os
import time
from array import array

import numpy as np


def _neighbor_count(args, result):
    return result.neighbor_count


def _repaired(args, result):
    # a repair changes at least one coordinate; comparing the raw bytes
    # is exact and cheaper than an elementwise numpy comparison
    return int(result.tobytes() != np.asarray(args[0], dtype=float).tobytes())


def _nonfinite(args, result):
    return int(not math.isfinite(result))


def _size_of(position):
    def measure(args, result):
        return os.path.getsize(args[position])

    return measure


def layer_table():
    """(owner, attribute, span name, boundary value) for every wrapped call.

    ``registry.get_objective`` is also bound inside ``cli`` by a
    ``from``-import, so both bindings are wrapped under one name.
    """
    from fdopt import cli, core, harness, registry
    from fdopt.objective import ObjectiveSpec

    return [
        (core, "init_population", "core.init_population", None),
        (core, "step", "core.step", None),
        (core, "neighborhood", "core.neighborhood", _neighbor_count),
        (core, "compute_fitness_weight", "core.compute_fitness_weight", None),
        (core, "compute_pace", "core.compute_pace", None),
        (core, "levy_random", "core.levy_random", None),
        (core, "propose_position", "core.propose_position", None),
        (core, "enforce_bounds", "core.enforce_bounds", _repaired),
        (core, "update_weight_factor", "core.update_weight_factor", None),
        (ObjectiveSpec, "evaluate", "objective.evaluate", _nonfinite),
        (harness, "run", "harness.run", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "export_results", "harness.export_results", _size_of(2)),
        (harness, "export_search_history", "harness.export_search_history", _size_of(1)),
        (registry, "get_objective", "registry.get_objective", None),
        (cli, "get_objective", "registry.get_objective", None),
        (cli, "main", "cli.main", None),
    ]


class SpanRecorder:
    """Records spans for the calls listed in :func:`layer_table`.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.  Each span is six integers in one
    flat array: id, name index, parent id, start ns, end ns, boundary value.
    A span is appended when it ends, also when its call raises, so children
    come before parents and, sorted by id, row i holds span i.
    """

    FIELDS = ("id", "kind", "parent", "start_ns", "end_ns", "value")

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self._ids = itertools.count()
        self._stack = [-1]
        self._saved = []

    def _wrap(self, original, name, measure):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        record, clock = spans.extend, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = next(ids)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((i, nid, parent, t0, t1, 0))
            if measure is not None:
                spans[-1] = measure(args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, measure in layer_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def columns(self):
        """Spans as numpy columns in id order, plus each span's self time in ns."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(self.FIELDS))
        table = table[np.argsort(table[:, 0], kind="stable")]
        cols = dict(zip(self.FIELDS, table.T))
        duration = cols["end_ns"] - cols["start_ns"]
        nested = cols["parent"] >= 0
        # self time: a span's duration minus the time its direct children cover
        children = np.bincount(
            cols["parent"][nested], weights=duration[nested], minlength=duration.size
        )
        cols["self_ns"] = duration - children
        return cols

    def summary(self):
        """Per span name: call count, total self seconds and summed boundary value."""
        cols = self.columns()
        kind, parent, n = cols["kind"], cols["parent"], len(self.names)
        calls = np.bincount(kind, minlength=n)
        self_s = np.bincount(kind, weights=cols["self_ns"], minlength=n) / 1e9
        values = np.bincount(kind, weights=cols["value"], minlength=n)
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "value": int(values[i])}
            for i, name in enumerate(self.names)
        }
        # evaluations caused directly by a step are first tries plus second chances
        ev, st = self.names.index("objective.evaluate"), self.names.index("core.step")
        nested = parent >= 0
        under_step = np.zeros(kind.size, dtype=bool)
        under_step[nested] = (kind[nested] == ev) & (kind[parent[nested]] == st)
        out["objective.evaluate"]["calls_in_step"] = int(np.count_nonzero(under_step))
        return out

    def save(self, path):
        """Write every span once, as numpy columns; row i is span i."""
        cols = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            kind=cols["kind"].astype(np.int32),
            parent=cols["parent"].astype(np.int32),
            start_ns=cols["start_ns"],
            end_ns=cols["end_ns"],
            value=cols["value"],
        )

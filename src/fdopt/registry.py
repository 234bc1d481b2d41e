"""Lookup of objectives by their stable string identifiers."""

from .applications import antenna_objective, build_scenario, evac_objective
from .cec2019 import cec_catalog
from .classical import catalog

DEFAULT_EVAC = dict(width=50.0, height=50.0, count=200, seed=0)


def all_objectives():
    """Every objective: 19 classical, 10 CEC-2019, 2 applications."""
    scenario = build_scenario(**DEFAULT_EVAC)
    return catalog() + cec_catalog() + [antenna_objective(), evac_objective(scenario)]


def get_objective(objective_id):
    for spec in all_objectives():
        if spec.id == objective_id:
            return spec
    raise KeyError(f"unknown objective {objective_id!r}")

"""Fleet simulation: many ARCS nodes under one global power budget.

The paper tunes one node under one cap; this package scales the same
control loop to a *cluster*: N simulated nodes (mixed Crill /
Minotaur-like specs) run staggered workloads, each driving ARCS
locally, while a hierarchical budget allocator redistributes per-node
caps from node telemetry under the invariant ``sum(live node caps) <=
global cap`` at every step - including while nodes crash, hang,
straggle, stop reporting, or flap in and out of the membership.

Public API::

    from repro.fleet import (
        FleetPlan, FleetNodeSpec, load_fleet_plan, synthesize_fleet,
        FleetSimulation, FleetResult, fleet_result_to_json,
        FleetJournal,
        BudgetAllocator, BudgetInvariantError,
        MembershipTracker, FleetEvent,
    )
"""

from repro.fleet.allocator import BudgetAllocator, BudgetInvariantError
from repro.fleet.events import DEGRADATION_KINDS, FleetEvent
from repro.fleet.journal import FleetJournal
from repro.fleet.membership import MembershipTracker
from repro.fleet.plan import (
    FleetNodeSpec,
    FleetPlan,
    FleetPlanError,
    fleet_plan_fingerprint,
    load_fleet_plan,
    save_fleet_plan,
    synthesize_fleet,
)
from repro.fleet.sim import (
    FleetResult,
    FleetSimulation,
    fleet_result_to_json,
    render_fleet,
    run_fleet,
)

__all__ = [
    "BudgetAllocator",
    "BudgetInvariantError",
    "DEGRADATION_KINDS",
    "FleetEvent",
    "FleetJournal",
    "FleetNodeSpec",
    "FleetPlan",
    "FleetPlanError",
    "FleetResult",
    "FleetSimulation",
    "MembershipTracker",
    "fleet_plan_fingerprint",
    "fleet_result_to_json",
    "load_fleet_plan",
    "render_fleet",
    "run_fleet",
    "save_fleet_plan",
    "synthesize_fleet",
]

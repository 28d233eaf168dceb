"""Multi-tenant open-loop service layer on the D-ORAM fabric.

The scenario layer turns the trace-replay simulator into a *service*
model: N concurrent S-App tenants, each behind its own ORAM tree and
fixed-rate frontend, driven by seeded open-loop arrival processes,
sharing secure delegators and the BOB channel fabric, optionally under
live admission control derived from the paper's D-ORAM/c profiling rule.
See DESIGN.md §11 for the architecture and the determinism contract.
"""

from repro.scenarios.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    ArrivalStream,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    derive_seed,
    make_stream,
)
from repro.scenarios.admission import AdmissionGovernor
from repro.scenarios.config import (
    FAULT_KINDS,
    ScenarioConfig,
    TenantFault,
    apply_overrides,
)
from repro.scenarios.service import (
    ScenarioResult,
    build_scenario,
    format_report,
    golden_scenario_config,
    golden_scenario_digests,
    run_scenario,
)
from repro.scenarios.sweep import (
    ScenarioPoint,
    scenario_grid,
    slo_rows,
)
from repro.scenarios.tenant import TenantSource

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionGovernor",
    "ArrivalSpec",
    "ArrivalStream",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FAULT_KINDS",
    "PoissonArrivals",
    "ScenarioConfig",
    "ScenarioPoint",
    "ScenarioResult",
    "TenantFault",
    "TenantSource",
    "apply_overrides",
    "build_scenario",
    "derive_seed",
    "format_report",
    "golden_scenario_config",
    "golden_scenario_digests",
    "make_stream",
    "run_scenario",
    "scenario_grid",
    "slo_rows",
]

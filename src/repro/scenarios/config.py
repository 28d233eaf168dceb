"""Scenario configuration: one multi-tenant open-loop service run.

Mirrors :class:`repro.core.config.SystemConfig` in idiom -- a frozen
dataclass, validated in ``__post_init__``, JSON-round-trippable so the
sweep store can content-address it -- but describes a *service* rather
than a trace replay: N S-App tenants behind one secure delegator fabric,
each driven by a seeded open-loop arrival stream, with per-tenant
admission control and an SLO-focused report.

The default geometry is the paper's BOB machine (four channels, channel 0
secure with four sub-channels) carrying zero NS-App background cores.
Every periodic mechanism in the build (DRAM refresh, the per-tenant
request pacers) runs one event per occurrence in both periodic modes;
the modes differ only in booked completions and lane groups, which keep
the logical census, so horizon-bounded runs are census-invariant across
eager/lazy (see DESIGN.md §11).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.bob.link import LinkParams
# The override grammar (``arrival.rate_rps``, ``oram.leaf_level``) is
# the one ``make_config`` uses; sweep points, campaign specs and
# ``doram serve`` import it from here.
from repro.core.config import apply_overrides  # noqa: F401
from repro.dram.timing import (
    ChannelParams,
    DDR3Timing,
    DDR3_1600,
    DEFAULT_CHANNEL_PARAMS,
)
from repro.oram.config import OramConfig
from repro.scenarios.arrivals import ArrivalSpec

FAULT_KINDS = ("drop", "delay")


@dataclass(frozen=True)
class TenantFault:
    """A deterministic fault scoped to exactly one tenant.

    ``drop`` rejects ``fraction`` of the tenant's arrivals before
    admission (seeded Bernoulli); ``delay`` adds ``delay_ns`` to the
    tenant's response accounting for ``fraction`` of completed reads.
    Both act entirely inside the faulted tenant's source -- the shared
    fabric sees only the (changed) load the tenant offers -- which is
    the property the tenant-isolation regression pins: a fault on tenant
    B may move other tenants' *timing*, never their functional results.
    """

    tenant_id: int = 0
    kind: str = "drop"
    fraction: float = 1.0
    delay_ns: float = 0.0
    seed: int = 97

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ValueError("tenant_id must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown tenant fault kind {self.kind!r} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.delay_ns < 0:
            raise ValueError("delay_ns must be >= 0")

    def to_json_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, state: Dict[str, object]) -> "TenantFault":
        return cls(**state)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one multi-tenant service scenario."""

    # -- tenants ----------------------------------------------------------
    num_tenants: int = 8
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: Offered-load window in nanoseconds; arrivals stop at the horizon.
    horizon_ns: float = 100_000.0
    #: When true (default), the run continues past the horizon until
    #: every admitted request completes, so completed == admitted and
    #: per-tenant functional digests are contention-independent.
    drain: bool = True
    #: Per-tenant admission queue capacity; arrivals beyond it are
    #: rejected (counted, never silently dropped).
    queue_cap: int = 64
    #: Fraction of admitted requests issued as writes (completed at
    #: admission to the ORAM frontend; reads complete at the response).
    write_fraction: float = 0.0

    # -- fabric -----------------------------------------------------------
    num_channels: int = 4
    #: BOB channels hosting secure delegators; tenants are assigned
    #: round-robin across them in id order.
    secure_channels: Tuple[int, ...] = (0,)
    secure_subchannels: int = 4
    normal_subchannels: int = 1
    t_cycles: int = 50
    sd_process_ns: float = 5.0
    secure_share: float = 0.5

    # -- control loop -----------------------------------------------------
    #: Admission-governor cadence; 0 disables the governor entirely.
    control_interval_ns: float = 10_000.0
    #: Mean-sojourn SLO target the governor compares against; 0 disables
    #: the governor (report percentiles are always emitted regardless).
    slo_target_ns: float = 0.0
    #: Governor floor: never shed below this many admitting tenants per
    #: secure channel.
    min_admitting: int = 1

    # -- components -------------------------------------------------------
    oram: OramConfig = field(default_factory=OramConfig)
    dram_timing: DDR3Timing = field(default_factory=lambda: DDR3_1600)
    channel_params: ChannelParams = field(
        default_factory=lambda: DEFAULT_CHANNEL_PARAMS
    )
    link_params: LinkParams = field(default_factory=LinkParams)
    seed: int = 1

    # -- observation ------------------------------------------------------
    #: Queue-depth/backlog sampling period; 0 disables snapshots.
    snapshot_interval_ns: float = 0.0
    #: Tenant-scoped fault specs (see :class:`TenantFault`).
    tenant_faults: Tuple[TenantFault, ...] = ()

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if self.horizon_ns <= 0:
            raise ValueError("horizon_ns must be positive")
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.num_channels < 2:
            raise ValueError("need at least one secure + one normal channel")
        secure = tuple(self.secure_channels)
        object.__setattr__(self, "secure_channels", secure)
        if not secure:
            raise ValueError("secure_channels must not be empty")
        if len(set(secure)) != len(secure):
            raise ValueError("secure_channels must be distinct")
        if any(not 0 <= ch < self.num_channels for ch in secure):
            raise ValueError("secure_channels out of range")
        if len(secure) >= self.num_channels:
            raise ValueError("at least one channel must stay normal")
        if self.secure_subchannels < 1 or self.normal_subchannels < 1:
            raise ValueError("subchannel counts must be >= 1")
        if self.t_cycles < 1:
            raise ValueError("t_cycles must be >= 1")
        if not 0.0 < self.secure_share < 1.0:
            raise ValueError("secure_share must be in (0, 1)")
        if self.control_interval_ns < 0 or self.slo_target_ns < 0:
            raise ValueError("control knobs must be >= 0")
        if self.min_admitting < 1:
            raise ValueError("min_admitting must be >= 1")
        if self.snapshot_interval_ns < 0:
            raise ValueError("snapshot_interval_ns must be >= 0")
        faults = tuple(self.tenant_faults)
        object.__setattr__(self, "tenant_faults", faults)
        for fault in faults:
            if fault.tenant_id >= self.num_tenants:
                raise ValueError(
                    f"tenant fault targets tenant {fault.tenant_id} but the "
                    f"scenario has {self.num_tenants} tenants"
                )

    # -- derived ----------------------------------------------------------
    @property
    def governed(self) -> bool:
        """True when the live admission governor is armed."""
        return self.control_interval_ns > 0 and self.slo_target_ns > 0

    def secure_channel_of(self, tenant_id: int) -> int:
        """Round-robin tenant -> secure channel placement."""
        secure = self.secure_channels
        return secure[tenant_id % len(secure)]

    def tenants_on(self, channel: int) -> Tuple[int, ...]:
        return tuple(
            t for t in range(self.num_tenants)
            if self.secure_channel_of(t) == channel
        )

    # -- (de)serialization (sweep result store) -------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe dict; hashed (canonical JSON) as the sweep key, so
        every behaviour-affecting field must appear -- ``asdict``
        guarantees that by construction."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, state: Dict[str, object]) -> "ScenarioConfig":
        state = dict(state)
        state["arrival"] = ArrivalSpec(**state["arrival"])
        state["oram"] = OramConfig(**state["oram"])
        state["dram_timing"] = DDR3Timing(**state["dram_timing"])
        state["channel_params"] = ChannelParams(**state["channel_params"])
        state["link_params"] = LinkParams(**state["link_params"])
        state["secure_channels"] = tuple(state["secure_channels"])
        state["tenant_faults"] = tuple(
            TenantFault(**f) for f in state.get("tenant_faults", ())
        )
        return cls(**state)


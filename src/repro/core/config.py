"""System configuration (the paper's Table II plus scheme knobs)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.bob.link import LinkParams
from repro.cpu.core import CoreParams
from repro.dram.timing import ChannelParams, DDR3Timing, DDR3_1600, DEFAULT_CHANNEL_PARAMS
from repro.oram.config import OramConfig

#: Fixed secure-packet size: 1 type bit + 63 address bits + 512 data bits
#: (Section III-B / Fig. 6).
PACKET_BYTES = 72

#: Short read packet used by the tree split: data field omitted
#: (Section III-C).
SHORT_PACKET_BYTES = 16

#: CPU-side processing time of one secure packet (ns): the S-App sees a
#: response this long after it arrives, and the fixed-rate pacer's next
#: slot follows ``t`` cycles later.
CPU_PROCESS_NS = 2.0


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate one simulated system.

    Scheme-independent hardware defaults follow Table II; the scheme
    builders in :mod:`repro.core.schemes` override the policy fields.
    """

    # -- workload ---------------------------------------------------------
    benchmark: str = "libq"
    trace_length: int = 8000
    num_ns_apps: int = 7
    has_s_app: bool = True
    #: Number of protected applications; each gets its own ORAM tree on
    #: the secure channel, all delegated to the one SD (Section III-C's
    #: "two S-Apps and two NS-Apps" capacity scenario).  Only the
    #: delegated (D-ORAM) placement supports more than one.
    num_s_apps: int = 1
    #: Trace segment (Fig. 12 profiles on a different segment).
    segment: int = 0

    # -- architecture -------------------------------------------------------
    #: "direct" = 4 parallel channels at the CPU; "bob" = 4 serial-link
    #: channels.  The default instantiates D-ORAM itself (BOB + delegated
    #: Path ORAM); the scheme builders override for the baselines.
    arch: str = "bob"
    num_channels: int = 4
    #: Sub-channels per BOB channel; the secure channel gets 4, normal
    #: channels 1 (Section IV).
    secure_subchannels: int = 4
    normal_subchannels: int = 1
    secure_channel: int = 0

    # -- protection --------------------------------------------------------
    #: "none" | "path" (ORAM) | "securemem" (ObfusMem/InvisiMem-like).
    protection: str = "path"
    #: Where the ORAM engine runs: "onchip" (baseline) or "delegated".
    oram_placement: str = "delegated"
    #: D-ORAM+k: extra tree levels relocated to normal channels.
    split_k: int = 0
    #: D-ORAM/c: NS-Apps allowed to allocate on the secure channel
    #: (None = all of them).
    c_limit: Optional[int] = None
    #: Channels the NS-Apps may use (None = all); 7NS-3ch passes (1,2,3).
    ns_channels: Optional[Tuple[int, ...]] = None
    #: Fixed-rate gap between ORAM requests, CPU cycles (III-B step 2).
    t_cycles: int = 50
    #: Bandwidth preallocation threshold for shared channels ([39]; IV).
    secure_share: float = 0.5
    #: Extra SD processing latency per packet, ns.
    sd_process_ns: float = 5.0
    #: Fork Path read merging [44] in the ORAM engine (ablation knob;
    #: the paper's configurations leave it off).
    fork_path: bool = False
    #: Coalesce split-tree short read packets per channel -- the paper's
    #: footnote-1 future work ("some read packets may be merged").
    merge_short_reads: bool = False

    # -- components ---------------------------------------------------------
    oram: OramConfig = field(default_factory=OramConfig)
    dram_timing: DDR3Timing = field(default_factory=lambda: DDR3_1600)
    channel_params: ChannelParams = field(
        default_factory=lambda: DEFAULT_CHANNEL_PARAMS
    )
    core_params: CoreParams = field(default_factory=CoreParams)
    link_params: LinkParams = field(default_factory=LinkParams)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.arch not in ("direct", "bob"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.protection not in ("none", "path", "securemem"):
            raise ValueError(f"unknown protection {self.protection!r}")
        if self.oram_placement not in ("onchip", "delegated"):
            raise ValueError(f"unknown placement {self.oram_placement!r}")
        if self.num_ns_apps < 0:
            raise ValueError("num_ns_apps must be >= 0")
        if self.c_limit is not None and not 0 <= self.c_limit <= self.num_ns_apps:
            raise ValueError("c_limit out of range")
        if self.split_k < 0:
            raise ValueError("split_k must be >= 0")
        if not 0.0 < self.secure_share < 1.0:
            raise ValueError("secure_share must be in (0, 1)")
        if self.arch == "direct" and self.oram_placement == "delegated":
            raise ValueError("delegation requires the BOB architecture")
        if self.split_k > 0 and self.oram_placement != "delegated":
            raise ValueError("tree split is a D-ORAM (delegated) feature")
        if self.num_s_apps < 1:
            raise ValueError("num_s_apps must be >= 1")
        if (self.num_s_apps > 1
                and (self.protection != "path"
                     or self.oram_placement != "delegated")):
            raise ValueError("multiple S-Apps require delegated Path ORAM")

    # -- (de)serialization (sweep result store) -------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe dict of the complete configuration.

        Nested component dataclasses flatten to plain dicts and tuples
        to lists; :meth:`from_json_dict` reverses the mapping exactly.
        The sweep store hashes this dict (canonical JSON) as the run
        key, so *every* field that can change simulation behaviour must
        appear here -- ``dataclasses.asdict`` guarantees that by
        construction.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, state: Dict[str, object]) -> "SystemConfig":
        state = dict(state)
        state["oram"] = OramConfig(**state["oram"])
        state["dram_timing"] = DDR3Timing(**state["dram_timing"])
        state["channel_params"] = ChannelParams(**state["channel_params"])
        state["core_params"] = CoreParams(**state["core_params"])
        state["link_params"] = LinkParams(**state["link_params"])
        if state.get("ns_channels") is not None:
            state["ns_channels"] = tuple(state["ns_channels"])
        return cls(**state)

    # ------------------------------------------------------------------
    def effective_oram(self) -> OramConfig:
        """ORAM geometry after D-ORAM+k expansion (4 -> 4*2^k GB)."""
        if self.split_k == 0:
            return self.oram
        return OramConfig(
            leaf_level=self.oram.leaf_level + self.split_k,
            bucket_size=self.oram.bucket_size,
            block_bytes=self.oram.block_bytes,
            treetop_levels=self.oram.treetop_levels,
            subtree_levels=self.oram.subtree_levels,
            utilization=self.oram.utilization,
        )


def apply_overrides(base, overrides: Dict[str, object]):
    """Rebuild the frozen config dataclass ``base`` with overrides.

    A flat key (``t_cycles``) names a field of ``base``; a dotted key
    (``oram.leaf_level``) names a field of one of its nested component
    dataclasses, which is rebuilt -- on top of a flat override of the
    same component, if any.  Dotted keys survive a JSON round trip as
    plain scalars, which is why sweep grids, campaign specs and the CLI
    use them.  ``dataclasses.replace`` re-runs every ``__post_init__``,
    so an out-of-range value fails with the component's own message; an
    unknown component or field raises ``ValueError`` naming the known
    ones.  This is the one grammar of :class:`SystemConfig` (through
    ``repro.core.schemes.make_config``) and of the scenario layer's
    ``ScenarioConfig``.
    """
    flat: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    for key, value in overrides.items():
        head, dot, sub = key.partition(".")
        if not dot:
            flat[key] = value
        elif "." in sub:
            raise ValueError(f"override {key!r} nests more than one level deep")
        else:
            nested.setdefault(head, {})[sub] = value
    _check_fields(base, flat, "")
    components = sorted(
        f.name for f in dataclasses.fields(base)
        if dataclasses.is_dataclass(getattr(base, f.name))
    )
    for head, fields in nested.items():
        if head not in components:
            raise ValueError(
                f"unknown override component {head!r} "
                f"(known: {', '.join(components)})"
            )
        current = flat.get(head, getattr(base, head))
        _check_fields(current, fields, f"{head} ")
        flat[head] = dataclasses.replace(current, **fields)
    return dataclasses.replace(base, **flat)


def _check_fields(config, fields: Dict[str, object], label: str) -> None:
    known = {f.name for f in dataclasses.fields(config)}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(
            f"unknown {label}override field(s) "
            f"{', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )

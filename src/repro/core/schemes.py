"""Named scheme configurations (every setup Section V evaluates).

Scheme strings accepted by :func:`run_scheme` / the CLI / the benches:

=================  ==========================================================
``1ns``            one NS-App alone, 4 direct channels (Fig. 4 base)
``7ns-4ch``        seven NS-Apps on all 4 channels, no S-App
``7ns-3ch``        seven NS-Apps restricted to channels 1-3
``baseline``       1 S-App (on-chip Path ORAM) + 7 NS-Apps, direct-attached
``securemem``      1 S-App (trusted-memory model) + 7 NS-Apps
``doram``          D-ORAM: delegated ORAM on the secure BOB channel
``doram+K``        D-ORAM with the tree expanded/split by K levels
``doram/C``        D-ORAM with only C NS-Apps allowed on the secure channel
``doram+K/C``      both of the above
=================  ==========================================================
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.core.config import SystemConfig, apply_overrides
from repro.core.system import SimResult, build_and_run

_DORAM_RE = re.compile(r"^doram(?:\+(\d+))?(?:/(\d+))?$")


def make_config(
    scheme: str,
    benchmark: str = "libq",
    trace_length: int = 8000,
    **overrides,
) -> SystemConfig:
    """Build the :class:`SystemConfig` for a named scheme.

    Overrides are either flat :class:`SystemConfig` fields
    (``t_cycles=60``) or dotted component fields
    (``**{"oram.leaf_level": 21}``) that rebuild the nested component
    dataclass, applied to the scheme's configuration by
    :func:`~repro.core.config.apply_overrides`.
    """
    scheme = scheme.lower().strip()
    common = dict(benchmark=benchmark, trace_length=trace_length)
    return apply_overrides(_scheme_config(scheme, common), overrides)


def _scheme_config(scheme: str, common: Dict[str, object]) -> SystemConfig:

    if scheme == "1ns":
        return SystemConfig(
            arch="direct", protection="none", oram_placement="onchip",
            has_s_app=False, num_ns_apps=1, **common,
        )
    if scheme == "7ns-4ch":
        return SystemConfig(
            arch="direct", protection="none", oram_placement="onchip",
            has_s_app=False, num_ns_apps=7, **common,
        )
    if scheme == "7ns-3ch":
        return SystemConfig(
            arch="direct", protection="none", oram_placement="onchip",
            has_s_app=False, num_ns_apps=7, ns_channels=(1, 2, 3), **common,
        )
    if scheme in ("baseline", "1s7ns", "pathoram"):
        return SystemConfig(
            arch="direct", protection="path", oram_placement="onchip",
            **common,
        )
    if scheme == "securemem":
        return SystemConfig(
            arch="direct", protection="securemem", oram_placement="onchip",
            **common,
        )
    if scheme == "udic":
        # Section III-F: delegate to a bridge chip on the DIMM of a
        # parallel-link channel instead of a BOB unit.  The engine then
        # commands only that one channel's devices (no 4x sub-channel
        # fan-out) but the "link" is the parallel bus itself (~2 ns).
        from repro.bob.link import LinkParams
        from repro.sim.engine import ns as _ns

        return SystemConfig(
            arch="bob", protection="path", oram_placement="delegated",
            secure_subchannels=1,
            link_params=LinkParams(latency=_ns(2.0)),
            **common,
        )
    match = _DORAM_RE.match(scheme)
    if match:
        split_k = int(match.group(1)) if match.group(1) else 0
        c_limit = int(match.group(2)) if match.group(2) else None
        return SystemConfig(
            arch="bob", protection="path", oram_placement="delegated",
            split_k=split_k, c_limit=c_limit, **common,
        )
    raise ValueError(f"unknown scheme {scheme!r}")


#: Canonical scheme list for discovery (parameterized forms are accepted
#: too, e.g. ``doram+2/3``).
SCHEMES = (
    "1ns",
    "7ns-4ch",
    "7ns-3ch",
    "baseline",
    "securemem",
    "doram",
    "doram+1",
    "doram/4",
    "doram+1/4",
    "udic",
)


def run_scheme(
    scheme: str,
    benchmark: str = "libq",
    trace_length: int = 8000,
    tracer=None,
    snapshot_interval_ns: Optional[float] = None,
    faults=None,
    periodic: str = "lazy",
    **overrides,
) -> SimResult:
    """Build and simulate one named scheme.

    ``tracer`` / ``snapshot_interval_ns`` / ``faults`` / ``periodic`` are
    forwarded to :func:`build_and_run`; all other keyword ``overrides``
    go to :class:`SystemConfig`.
    """
    config = make_config(scheme, benchmark, trace_length, **overrides)
    return build_and_run(config, tracer=tracer,
                         snapshot_interval_ns=snapshot_interval_ns,
                         faults=faults, periodic=periodic)

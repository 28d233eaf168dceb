"""The fault-plan DSL: seeded, declarative fault schedules.

A :class:`FaultPlan` is a *pure description* -- which links may flip,
drop, or delay packets, which DRAM channels may suffer transient read
bit-flips, and when the secure delegator stalls or crashes -- plus the
:class:`RecoveryParams` the recovery protocol runs with.  Plans are
frozen, JSON round-trippable (the ``doram faults --plan file`` format),
and deterministic: every injection site derives its own independent
``random.Random`` stream from ``(plan.seed, site kind, site name)`` via
sha256, so adding a rule for one link never perturbs the fault schedule
another site sees.

Arming a plan never changes simulation results by itself: an *empty*
plan wires the recovery machinery and the injection hooks but fires no
faults, and the golden-trace digests stay bit-identical (enforced by
``tests/faults/test_empty_plan_identity.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import ns

#: Rule kinds each injection layer understands.
LINK_KINDS = ("corrupt", "drop", "delay")
DRAM_KINDS = ("flip",)
DELEGATOR_KINDS = ("stall", "crash")

#: Site-name grammars.  Patterns may use fnmatch wildcards; a *literal*
#: pattern (no ``*?[``) that can never name a real site is a typo, and
#: typos should fail at plan load, not as a silently never-firing rule.
_LINK_NAME_RE = re.compile(r"^bob\d+\.(down|up)$")
_CHANNEL_NAME_RE = re.compile(r"^ch\d+(\.\d+)?$")


def _is_literal(pattern: str) -> bool:
    return not any(c in pattern for c in "*?[")


def _check_site_name(pattern: str, grammar: re.Pattern, what: str,
                     example: str) -> None:
    if _is_literal(pattern) and not grammar.match(pattern):
        raise FaultPlanError(
            f"unknown {what} site name {pattern!r}: literal names must "
            f"look like {example!r} (wildcards are allowed)"
        )


def _check_indices(indices, what: str) -> Tuple[int, ...]:
    out = []
    for value in indices:
        index = int(value)
        if index < 0:
            raise FaultPlanError(
                f"{what} indices must be >= 0 (got {value})"
            )
        out.append(index)
    return tuple(out)


class FaultPlanError(ValueError):
    """A malformed fault plan (bad kind, rate, window, or file)."""


def site_rng(seed: int, kind: str, name: str) -> random.Random:
    """Independent, stable RNG stream for one injection site.

    Python's ``hash(str)`` is randomized per process, so the stream key
    is a sha256 over the textual identity instead -- the same plan gives
    the same schedule in every process, worker, and Python version.
    """
    digest = hashlib.sha256(
        f"{seed}:{kind}:{name}".encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _window_ticks(start_ns: float, stop_ns: Optional[float]) -> Tuple[int, int]:
    lo = ns(start_ns)
    hi = ns(stop_ns) if stop_ns is not None else (1 << 62)
    return lo, hi


@dataclass(frozen=True)
class LinkFault:
    """One rule over serial-link packets.

    ``link`` and ``tag`` are ``fnmatch`` patterns over the link name
    (``bob0.down``, ``bob2.up``, ...) and the packet's protocol tag
    (``raw`` for secure CPU<->SD frames, ``remote`` for split-tree
    messages, ``req``/``wdata``/``rdata`` for normal traffic).  A packet
    is hit when it matches and either the per-packet ``rate`` draw fires
    or its per-rule match index is listed in ``packets`` (exact,
    schedule-style injection for unit tests).  ``corrupt`` and ``drop``
    only take effect on recovery-aware frames (the MAC-checked secure
    stream); ``delay`` models a link stall and applies to any packet,
    pushing it and everything behind it back by ``delay_ns``.
    """

    kind: str = "corrupt"
    link: str = "*"
    tag: str = "*"
    rate: float = 0.0
    packets: Tuple[int, ...] = ()
    delay_ns: float = 0.0
    start_ns: float = 0.0
    stop_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise FaultPlanError(
                f"unknown link fault kind {self.kind!r} "
                f"(valid: {', '.join(LINK_KINDS)})"
            )
        if not 0.0 <= self.rate < 1.0:
            raise FaultPlanError(
                f"link fault rate {self.rate} must be in [0, 1)"
            )
        if self.kind == "delay" and self.delay_ns <= 0:
            raise FaultPlanError("delay faults need delay_ns > 0")
        if self.delay_ns < 0:
            raise FaultPlanError("delay_ns must be >= 0")
        if self.start_ns < 0:
            raise FaultPlanError("link fault start_ns must be >= 0")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise FaultPlanError("fault window stop_ns must be > start_ns")
        _check_site_name(self.link, _LINK_NAME_RE, "link", "bob0.down")
        object.__setattr__(
            self, "packets", _check_indices(self.packets, "packet")
        )

    def matches_link(self, name: str) -> bool:
        return fnmatchcase(name, self.link)

    def describe(self) -> str:
        sel = (f"packets {list(self.packets)}" if self.packets
               else f"rate {self.rate:g}")
        window = "" if self.stop_ns is None and self.start_ns == 0 else (
            f" in [{self.start_ns:g}, "
            f"{'inf' if self.stop_ns is None else f'{self.stop_ns:g}'}) ns"
        )
        extra = f" +{self.delay_ns:g} ns" if self.kind == "delay" else ""
        return (f"link {self.link} tag={self.tag}: {self.kind}{extra} "
                f"({sel}){window}")


@dataclass(frozen=True)
class DramFault:
    """Transient bit-flips on the DRAM read path of matching channels.

    The flip model is *transient*: the stored cell is intact, the data
    burst delivered for one read completion is garbled (bus / sense
    error).  The MAC on each ORAM block detects it and a re-read
    returns clean data -- the recoverable case of the Bonsai-Merkle
    style integrity argument.  Flips landing on unprotected (normal
    NS-App) reads are counted as ``unprotected`` but have no timing
    effect; nothing verifies them, exactly as the threat model says.
    """

    kind: str = "flip"
    channel: str = "*"
    rate: float = 0.0
    reads: Tuple[int, ...] = ()
    start_ns: float = 0.0
    stop_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in DRAM_KINDS:
            raise FaultPlanError(
                f"unknown dram fault kind {self.kind!r} "
                f"(valid: {', '.join(DRAM_KINDS)})"
            )
        if not 0.0 <= self.rate < 1.0:
            raise FaultPlanError(
                f"dram fault rate {self.rate} must be in [0, 1)"
            )
        if self.start_ns < 0:
            raise FaultPlanError("dram fault start_ns must be >= 0")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise FaultPlanError("fault window stop_ns must be > start_ns")
        _check_site_name(self.channel, _CHANNEL_NAME_RE, "dram channel",
                         "ch0.1")
        object.__setattr__(
            self, "reads", _check_indices(self.reads, "read")
        )

    def matches_channel(self, name: str) -> bool:
        return fnmatchcase(name, self.channel)

    def describe(self) -> str:
        sel = (f"reads {list(self.reads)}" if self.reads
               else f"rate {self.rate:g}")
        window = "" if self.stop_ns is None and self.start_ns == 0 else (
            f" in [{self.start_ns:g}, "
            f"{'inf' if self.stop_ns is None else f'{self.stop_ns:g}'}) ns"
        )
        return f"dram {self.channel}: transient read flip ({sel}){window}"


@dataclass(frozen=True)
class DelegatorFault:
    """Secure-delegator stall window or permanent crash.

    ``stall``: request intake freezes for ``duration_ns`` starting at
    ``start_ns`` (frames arriving meanwhile are buffered and drained in
    order at the window's end).  ``crash``: intake stops forever at
    ``start_ns``; the CPU-side watchdog eventually declares the SD dead
    and fails over to the host-side baseline engine.
    """

    kind: str = "stall"
    start_ns: float = 0.0
    duration_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DELEGATOR_KINDS:
            raise FaultPlanError(
                f"unknown delegator fault kind {self.kind!r} "
                f"(valid: {', '.join(DELEGATOR_KINDS)})"
            )
        if self.start_ns < 0:
            raise FaultPlanError("delegator fault start_ns must be >= 0")
        if self.kind == "stall" and self.duration_ns <= 0:
            raise FaultPlanError("stall faults need duration_ns > 0")

    def describe(self) -> str:
        if self.kind == "crash":
            return f"delegator: crash at {self.start_ns:g} ns"
        return (f"delegator: stall [{self.start_ns:g}, "
                f"{self.start_ns + self.duration_ns:g}) ns")


@dataclass(frozen=True)
class RecoveryParams:
    """Constants of the secure-link recovery protocol.

    ``deadline_ns`` is the per-attempt response deadline at the CPU
    endpoint, per session sharing the SD (a session's deadline is
    ``deadline_ns`` times their number); a request unanswered for that
    long is retransmitted at exactly ``sent + deadline`` (a
    deterministic function of the wire, so the retry adds no timing
    channel).  ``watchdog_misses``
    consecutive deadline expiries declare the SD dead and trigger
    failover to the host-side baseline Path ORAM engine.
    ``block_read_retries`` bounds per-block DRAM re-reads after a MAC
    failure; ``remote_retries`` bounds end-to-end re-runs of a
    corrupted split-tree message chain.
    """

    #: With one session on the SD a D-ORAM response normally lands
    #: ~1-2 us after the request, so 5 us is several missed slots --
    #: late enough to never fire on a healthy link, early enough to
    #: recover inside short runs.
    deadline_ns: float = 5000.0
    watchdog_misses: int = 4
    block_read_retries: int = 16
    remote_retries: int = 8
    #: Total transmission attempts per request (NAK- plus timeout-driven)
    #: before the link is declared unrecoverable and the session fails
    #: over -- the "bounded retransmission" guarantee.
    max_attempts: int = 64

    def __post_init__(self) -> None:
        if self.deadline_ns <= 0:
            raise FaultPlanError("recovery deadline_ns must be > 0")
        if self.watchdog_misses < 1:
            raise FaultPlanError("watchdog_misses must be >= 1")
        if self.block_read_retries < 1:
            raise FaultPlanError("block_read_retries must be >= 1")
        if self.remote_retries < 1:
            raise FaultPlanError("remote_retries must be >= 1")
        if self.max_attempts < 2:
            raise FaultPlanError("max_attempts must be >= 2")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule plus recovery constants."""

    seed: int = 0
    link: Tuple[LinkFault, ...] = ()
    dram: Tuple[DramFault, ...] = ()
    delegator: Tuple[DelegatorFault, ...] = ()
    recovery: RecoveryParams = field(default_factory=RecoveryParams)

    def __post_init__(self) -> None:
        object.__setattr__(self, "link", tuple(self.link))
        object.__setattr__(self, "dram", tuple(self.dram))
        object.__setattr__(self, "delegator", tuple(self.delegator))
        crashes = [f for f in self.delegator if f.kind == "crash"]
        if len(crashes) > 1:
            raise FaultPlanError("at most one delegator crash per plan")
        # Overlapping stall windows (or a stall reaching past the crash
        # point) describe an ambiguous schedule -- reject at load time
        # instead of silently resolving mid-run.
        windows = sorted(
            (ns(r.start_ns), ns(r.start_ns + r.duration_ns))
            for r in self.delegator if r.kind == "stall"
        )
        for (_, prev_hi), (lo, _) in zip(windows, windows[1:]):
            if lo < prev_hi:
                raise FaultPlanError(
                    "delegator stall windows overlap; merge them into "
                    "one rule"
                )
        crash = ns(crashes[0].start_ns) if crashes else None
        if crash is not None and any(hi > crash for _, hi in windows):
            raise FaultPlanError(
                "delegator stall window overlaps the crash point; the "
                "delegator cannot stall after it crashed"
            )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when no rule can ever fire (recovery still arms)."""
        return not (self.link or self.dram or self.delegator)

    def reseeded(self, seed: int) -> "FaultPlan":
        """The same schedule shape under a different seed."""
        return FaultPlan(seed=seed, link=self.link, dram=self.dram,
                         delegator=self.delegator, recovery=self.recovery)

    def crash_tick(self) -> Optional[int]:
        for rule in self.delegator:
            if rule.kind == "crash":
                return ns(rule.start_ns)
        return None

    def stall_windows(self) -> List[Tuple[int, int]]:
        """Sorted ``(start, end)`` stall windows in ticks.

        Windows are disjoint by construction: ``__post_init__`` rejects
        overlapping stall rules at load time.
        """
        return sorted(
            (ns(r.start_ns), ns(r.start_ns + r.duration_ns))
            for r in self.delegator if r.kind == "stall"
        )

    def describe(self) -> List[str]:
        """Human-readable resolved schedule (``doram faults --dry-run``)."""
        lines = [f"seed {self.seed}"]
        lines.extend(rule.describe() for rule in self.link)
        lines.extend(rule.describe() for rule in self.dram)
        lines.extend(rule.describe() for rule in self.delegator)
        if self.is_empty:
            lines.append("(no fault rules: plan arms recovery only)")
        r = self.recovery
        lines.append(
            f"recovery: deadline {r.deadline_ns:g} ns, "
            f"watchdog after {r.watchdog_misses} misses, "
            f"{r.block_read_retries} block re-reads, "
            f"{r.remote_retries} remote retries"
        )
        return lines

    # -- (de)serialization ------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        for section in ("link", "dram", "delegator"):
            for rule in doc[section]:
                for key in ("packets", "reads"):
                    if key in rule:
                        rule[key] = list(rule[key])
        return doc

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        unknown = set(doc) - {"seed", "link", "dram", "delegator", "recovery"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(
                seed=int(doc.get("seed", 0)),
                link=tuple(
                    LinkFault(**rule) for rule in doc.get("link", ())
                ),
                dram=tuple(
                    DramFault(**rule) for rule in doc.get("dram", ())
                ),
                delegator=tuple(
                    DelegatorFault(**rule)
                    for rule in doc.get("delegator", ())
                ),
                recovery=RecoveryParams(**doc.get("recovery", {})),
            )
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as fp:
                doc = json.load(fp)
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {path!r}: {exc.strerror or exc}"
            ) from exc
        except ValueError as exc:
            raise FaultPlanError(
                f"fault plan {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_json_dict(doc)

"""Timing-side Path ORAM engine.

Converts one protected request (or a dummy) into the paper's path traffic:
with the default configuration, 84 block reads followed by 84 block
writes, striped over four (sub-)channels, with tree-top-cached levels
skipped.  Where those block accesses go is abstracted behind
:class:`BlockSink`, so the same engine serves both the on-chip Path ORAM
baseline (blocks into the four direct-attached channels) and the D-ORAM
secure delegator (local sub-channels plus cross-channel messages for
split-tree levels).

The two protocol phases are exposed separately (``begin_read`` /
``begin_write``) because D-ORAM's delegator sends the response packet as
soon as the read phase finishes and overlaps the write phase with the
response's link flight (Section III-B).

The controller gets each path's placements from its sink
(:meth:`BlockSink.path_placements`): every block by default, or a
:class:`~repro.oram.layout.LaneShare` from the secure delegator while
its sub-channels run as a live lane group.  The fork-path filter and the
phase copies keep a share one, and block counts count every lane's
(:func:`~repro.oram.layout.block_count`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.dram.commands import OpType, ignore_completion
from repro.obs.tracer import NULL_TRACER
from repro.oram.config import OramConfig
from repro.oram.layout import BlockPlacement, OramLayout, block_count
from repro.oram.protocol import ProtocolState
from repro.sim.engine import Engine
from repro.sim.stats import StatSet


class BlockSink:
    """Where path block accesses go (duck-typed interface).

    ``issue_phase`` issues what it can of a phase's pending placements
    now and returns ``(stalled, outstanding)``: the placements it could
    not accept (in the order given; the controller re-pumps them after
    ``notify_on_space`` fires) and the number of completions ``on_done``
    will receive for the accepted ones.  That is one per accepted block,
    except that when a READ issue leaves nothing stalled a sink may share
    one completion among the blocks it queued on one channel
    (:class:`~repro.dram.commands.CompletionGroup`).  WRITE phases pass
    :func:`~repro.dram.commands.ignore_completion`.
    """

    def path_placements(self, layout: OramLayout,
                        leaf: int) -> List[BlockPlacement]:
        """The placements ``issue_phase`` will get for an access to
        ``leaf``'s path: by default every block
        (:meth:`OramLayout.path_placements`)."""
        return layout.path_placements(leaf)

    def issue_phase(
        self,
        placements: Sequence[BlockPlacement],
        op: OpType,
        on_done: Callable[[int], None],
    ) -> Tuple[List[BlockPlacement], int]:  # pragma: no cover - interface
        raise NotImplementedError

    def notify_on_space(self, callback: Callable[[], None]) -> None:  # pragma: no cover
        raise NotImplementedError


class OramController:
    """One Path ORAM engine processing a single access at a time."""

    def __init__(
        self,
        engine: Engine,
        config: OramConfig,
        layout: OramLayout,
        sink: BlockSink,
        seed: int = 0,
        name: str = "oram",
        fork_path: bool = False,
        tracer=None,
    ) -> None:
        """``fork_path`` enables the read-side merging of Fork Path
        [Zhang et al., MICRO'15]: buckets shared between consecutive
        path accesses (the common tree prefix) were just written by the
        previous access, so their contents are still in the engine's
        buffers and need not be re-read.  With uniformly random paths
        and a 3-level tree-top cache the expected overlap below the
        cache is small (sum of 2^-l for l >= 3, about a quarter of a
        bucket), which the ablation bench quantifies."""
        self.engine = engine
        self.config = config
        self.layout = layout
        self.sink = sink
        self.state = ProtocolState(config, seed=seed, lazy=True)
        self.stats = StatSet(name)
        self.fork_path = fork_path
        self.name = name
        self._tracer = (
            tracer if tracer is not None else NULL_TRACER
        ).category("oram")
        self._access_real = False

        self._placements: List[BlockPlacement] = []
        self._read_placements: List[BlockPlacement] = []
        self._pending: List[BlockPlacement] = []
        self._outstanding = 0
        self._phase: Optional[str] = None
        self._phase_start = 0
        self._phase_done_cb: Optional[Callable[[int], None]] = None
        self._waiting_for_space = False
        self._prev_buckets: frozenset = frozenset()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._phase is not None

    @property
    def phase(self) -> Optional[str]:
        return self._phase

    # ------------------------------------------------------------------
    def begin_read(
        self,
        block_id: Optional[int],
        on_done: Callable[[int], None],
    ) -> None:
        """Start the read phase for ``block_id`` (``None`` = dummy access).

        The protocol step: look up (and remap) the block's leaf, then
        fetch every non-cached block on that path.
        """
        if self.busy:
            raise RuntimeError("ORAM controller is mid-access")
        if block_id is None:
            leaf = self.state.dummy_path()
            self.stats.counter("dummy_accesses").add()
        else:
            leaf, _new_leaf = self.state.access_begin(block_id)
            self.stats.counter("real_accesses").add()
        self._access_real = block_id is not None
        if self._tracer.enabled:
            self._tracer.instant(
                "oram", "access", self.name, self.engine.now,
                {"real": int(self._access_real), "leaf": leaf},
            )
        placements = self.sink.path_placements(self.layout, leaf)
        self._placements = placements
        if self.fork_path:
            buckets = frozenset(p.bucket for p in placements)
            overlap = buckets & self._prev_buckets
            self._prev_buckets = buckets
            if overlap:
                # Read phase skips the still-buffered buckets; the write
                # phase rewrites the full path as the protocol requires.
                # (``copy`` and slice assignment keep a lane share one.)
                read = placements.copy()
                read[:] = [p for p in placements if p.bucket not in overlap]
                self.stats.counter("fork_skipped_blocks").add(
                    block_count(placements) - block_count(read)
                )
                self._read_placements = read
            else:
                self._read_placements = placements
        else:
            self._read_placements = placements
        self._start_phase("read", on_done)

    def begin_write(self, on_done: Callable[[int], None]) -> None:
        """Write the same path back (re-encrypted blocks + evictions)."""
        if self.busy:
            raise RuntimeError("ORAM controller is mid-phase")
        if not self._placements:
            raise RuntimeError("begin_write without a preceding read phase")
        self._start_phase("write", on_done)

    # ------------------------------------------------------------------
    def _start_phase(self, phase: str, on_done: Callable[[int], None]) -> None:
        self._phase = phase
        self._phase_start = self.engine.now
        self._phase_done_cb = on_done
        source = self._read_placements if phase == "read" else self._placements
        self._pending = source.copy()
        self._outstanding = 0
        self._pump()

    def _pump(self) -> None:
        self._waiting_for_space = False
        if self._phase is None:
            return
        # Read phase: the response needs every block, so completions are
        # tracked.  Write phase: the protocol's "write phase ongoing" is
        # the engine *issuing* the re-encrypted path; a block is done when
        # the memory system accepts it (queue back-pressure still paces
        # the engine), matching how [32]/[39] stream the write-back.
        # issue_phase never re-enters _pump synchronously.
        if self._phase == "read":
            stalled, outstanding = self.sink.issue_phase(
                self._pending, OpType.READ, self._block_done
            )
            self._outstanding += outstanding
        else:
            stalled, _ = self.sink.issue_phase(
                self._pending, OpType.WRITE, ignore_completion
            )
        self._pending = stalled
        if stalled and not self._waiting_for_space:
            self._waiting_for_space = True
            self.sink.notify_on_space(self._pump)
        self._maybe_finish()

    def _block_done(self, _time: int) -> None:
        # Runs once per read completion (a block, or one channel's group
        # of blocks); the common case (more still in flight) must fall
        # through with minimal work.
        outstanding = self._outstanding - 1
        self._outstanding = outstanding
        if self._pending:
            if not self._waiting_for_space:
                # Capacity likely freed somewhere; retry stalled placements.
                self._pump()
            # else: the space callback will re-pump; _maybe_finish would
            # bail on the non-empty pending list anyway.
            return
        if outstanding == 0:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._phase is None or self._pending or self._outstanding:
            return
        phase, cb = self._phase, self._phase_done_cb
        self._phase = None
        self._phase_done_cb = None
        elapsed = self.engine.now - self._phase_start
        self.stats.latency(f"{phase}_phase").record(elapsed)
        if self._tracer.enabled:
            blocks = (
                self._read_placements if phase == "read" else self._placements
            )
            self._tracer.complete(
                "oram", f"{phase}_phase", self.name, self._phase_start,
                elapsed,
                {"blocks": block_count(blocks),
                 "real": int(self._access_real)},
            )
        if cb is not None:
            cb(self.engine.now)

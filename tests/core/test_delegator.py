"""Secure delegator: sequencing, buffering, remote messaging.

Requests reach the SD the one way they do in a whole-system run: as
frames from a :class:`SecureLinkSession` at the CPU end of the secure
link.
"""

from typing import List, Optional

import pytest

from repro.bob.channel import BobChannel
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.core.recovery import Frame, SecureLinkSession
from repro.core.schemes import run_scheme
from repro.dram.channel import Channel
from repro.dram.commands import OpType
from repro.dram.timing import ChannelParams
from repro.faults import DramFault, FaultController, FaultPlan, LinkFault
from repro.oram.config import OramConfig
from repro.oram.controller import OramController
from repro.oram.layout import OramLayout
from repro.sim.engine import Engine


def build_doram(split_k=0, leaf_level=9, merge_short_reads=False,
                params=ChannelParams()):
    """A secure BOB channel with SD + three normal BOB channels;
    ``params`` shapes the secure sub-channels."""
    eng = Engine()
    secure_subs = [Channel(eng, f"ch0.{i}", params=params)
                   for i in range(4)]
    secure_bob = BobChannel(eng, 0, secure_subs)
    normal_bobs = {
        ch: BobChannel(eng, ch, [Channel(eng, f"ch{ch}.0")])
        for ch in (1, 2, 3)
    }
    sd = SecureDelegator(eng, secure_bob, normal_bobs, process_ns=5.0,
                         merge_short_reads=merge_short_reads)
    cfg = OramConfig(leaf_level=leaf_level, treetop_levels=3,
                     subtree_levels=3)
    layout = OramLayout(
        cfg,
        home_targets=[(0, i) for i in range(4)],
        home_levels=cfg.num_levels - split_k,
        remote_targets=[(1, 0), (2, 0), (3, 0)] if split_k else (),
    )
    controller = OramController(eng, cfg, layout, sd, seed=1)
    sd.sequencer = OramSequencer(controller)
    return eng, sd, controller, secure_bob, normal_bobs


def session_for(sd: SecureDelegator) -> SecureLinkSession:
    """The CPU end of the secure link to ``sd``'s primary tree."""
    return SecureLinkSession(sd.engine, sd.secure_bob, sd,
                             sd.sequencer.controller)


class TestSequencer:
    def test_response_fires_after_read_phase(self):
        eng, sd, ctrl, *_ = build_doram()
        responses: List[int] = []
        session_for(sd).submit(0, responses.append)
        eng.run()
        assert len(responses) == 1
        assert ctrl.stats.latency("read_phase").count == 1

    def test_write_phase_follows_response(self):
        eng, sd, ctrl, *_ = build_doram()
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        assert ctrl.stats.latency("write_phase").count == 1

    def test_request_during_write_phase_is_buffered(self):
        # The write phase ends once the memory system has accepted the
        # whole path, so two-deep write queues make it outlast the
        # response's round trip.
        eng, sd, ctrl, *_ = build_doram(
            leaf_level=12,
            params=ChannelParams(write_queue_depth=2, write_drain_hi=1,
                                 write_drain_lo=0),
        )
        session = session_for(sd)
        order: List[str] = []
        phase_at_arrival: List[Optional[str]] = []
        submit = sd.sequencer.submit

        def recording_submit(*args):
            phase_at_arrival.append(ctrl.phase)
            submit(*args)

        sd.sequencer.submit = recording_submit

        def first_response(t: int) -> None:
            order.append("resp1")
            # Send the second request as soon as the first response
            # lands: access 1's write phase is still under way when it
            # reaches the SD, so it must buffer.
            session.submit(1, lambda t2: order.append("resp2"))

        session.submit(0, first_response)
        eng.run()
        assert order == ["resp1", "resp2"]
        assert phase_at_arrival == [None, "write"]
        assert ctrl.stats.counter("real_accesses").value == 2
        assert ctrl.stats.latency("write_phase").count == 2

    def test_unwired_delegator_rejects(self):
        eng = Engine()
        subs = [Channel(eng, "s0")]
        bob = BobChannel(eng, 0, subs)
        sd = SecureDelegator(eng, bob, {})
        session = SecureLinkSession(eng, bob, sd, controller=None)
        with pytest.raises(RuntimeError, match="not wired"):
            sd.receive_frame(Frame(Frame.REQ, 1, 0, 1, session))

    def test_dummy_requests_processed(self):
        eng, sd, ctrl, *_ = build_doram()
        session_for(sd).submit(None, lambda t: None)
        eng.run()
        assert ctrl.stats.counter("dummy_accesses").value == 1


class TestLocalTraffic:
    def test_blocks_stripe_over_four_subchannels(self):
        eng, sd, ctrl, secure_bob, _ = build_doram()
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        counts = [
            sub.stats.counter("reads_serviced").value
            for sub in secure_bob.subchannels
        ]
        # 7 fetched levels x 4 blocks: one block per bucket per sub-channel.
        assert counts == [7, 7, 7, 7]

    def test_no_remote_traffic_without_split(self):
        eng, sd, ctrl, _, normal_bobs = build_doram(split_k=0)
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        assert sd.stats.counter("remote_short_reads").value == 0
        for bob in normal_bobs.values():
            assert bob.subchannels[0].queued == 0


class TestRemoteTraffic:
    def test_split_generates_table1_messages(self):
        eng, sd, ctrl, secure_bob, normal_bobs = build_doram(split_k=1)
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        # k=1: 4 relocated blocks -> 4 short reads + 4 writes via SD.
        assert sd.stats.counter("remote_short_reads").value == 4
        assert sd.stats.counter("remote_writes").value == 4

    def test_remote_blocks_hit_normal_channels(self):
        eng, sd, ctrl, _, normal_bobs = build_doram(split_k=1)
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        serviced = sum(
            bob.subchannels[0].stats.counter("reads_serviced").value
            for bob in normal_bobs.values()
        )
        assert serviced == 4

    def test_remote_messages_cross_both_links(self):
        eng, sd, ctrl, secure_bob, normal_bobs = build_doram(split_k=1)
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        # Secure channel up: 4 short reads + 4 write packets + the SD's
        # response frame; down: the session's request frame + 4 data
        # responses.
        assert secure_bob.stats.counter("raw_up").value == 9
        assert secure_bob.stats.counter("raw_down").value == 5

    def test_remote_read_latency_exceeds_local(self):
        eng_l, sd_l, ctrl_l, *_ = build_doram(split_k=0)
        session_for(sd_l).submit(0, lambda t: None)
        eng_l.run()
        local_read = ctrl_l.stats.latency("read_phase").mean

        eng_r, sd_r, ctrl_r, *_ = build_doram(split_k=1)
        session_for(sd_r).submit(0, lambda t: None)
        eng_r.run()
        remote_read = ctrl_r.stats.latency("read_phase").mean
        # Four extra link round trips stretch the read phase.
        assert remote_read > local_read

    def test_per_channel_rotation_counts(self):
        eng, sd, ctrl, _, _ = build_doram(split_k=2)
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        total_reads = sum(
            sd.stats.counter(f"ch{ch}_reads").value for ch in (1, 2, 3)
        )
        assert total_reads == 8  # 2 nodes x 4 blocks
        # Each channel receives at least its fixed-slot share (k = 2).
        for ch in (1, 2, 3):
            assert sd.stats.counter(f"ch{ch}_reads").value >= 2


class TestShortReadMerging:
    """Footnote-1 future work: coalesced split-tree read packets."""

    def test_merged_packet_count_drops(self):
        _eng, sd, ctrl, *_ = self._run(merge=True)
        # k=2: 8 relocated blocks over 3 channels -> at most 3 merged
        # packets per access (one per channel) instead of 8.
        assert sd.stats.counter("remote_short_reads").value <= 3
        assert sd.stats.counter("remote_read_blocks").value == 8

    def test_unmerged_sends_one_packet_per_block(self):
        _eng, sd, ctrl, *_ = self._run(merge=False)
        assert sd.stats.counter("remote_short_reads").value == 8
        assert sd.stats.counter("remote_read_blocks").value == 8

    def test_merging_preserves_dram_traffic(self):
        for merge in (False, True):
            _eng, sd, ctrl, _, normal_bobs = self._run(merge=merge)
            serviced = sum(
                bob.subchannels[0].stats.counter("reads_serviced").value
                for bob in normal_bobs.values()
            )
            assert serviced == 8, f"merge={merge}"

    def test_merging_completes_read_phase(self):
        _eng, _sd, ctrl, *_ = self._run(merge=True)
        assert ctrl.stats.latency("read_phase").count == 1
        assert ctrl.stats.latency("write_phase").count == 1

    def test_shared_remote_window_splits_merged_reads(self, monkeypatch):
        """Why full merged runs ship more than 3 packets per access:
        remote reads and writes share ``REMOTE_WINDOW``, so a read phase
        often finds the previous access's 8 remote writes still holding
        it; its refused reads leave later, in packets of their own.
        With room for both, every access's short reads leave in one
        burst: one packet per normal channel."""
        counts = {}
        for window in (16, 32):
            monkeypatch.setattr(SecureDelegator, "REMOTE_WINDOW", window)
            result = run_scheme("doram+2", "li", 400,
                                merge_short_reads=True)
            counts[window] = (result.s_app["remote_short_reads"],
                              result.s_app["oram_accesses"])
        packets, accesses = counts[32]
        assert packets == 3 * accesses
        packets, accesses = counts[16]
        assert packets > 3 * accesses

    @staticmethod
    def _run(merge):
        parts = build_doram(split_k=2, merge_short_reads=merge)
        eng, sd = parts[0], parts[1]
        session_for(sd).submit(0, lambda t: None)
        eng.run()
        return parts

    def test_flips_on_merged_reads_are_mac_checked(self):
        """A merged read's blocks complete through their message chains,
        so a DRAM flip on a normal channel is caught by the SD's MAC
        check and the chain re-runs -- exactly as without merging."""
        plan = FaultPlan(dram=(DramFault(channel="ch1*", rate=0.05),),
                         seed=1)
        summaries = {}
        for merge in (False, True):
            result = run_scheme("doram+2", "libq", 300,
                                merge_short_reads=merge,
                                faults=FaultController(plan))
            summaries[merge] = result.fault_summary["faults"]
        # The NS-App reads nothing verifies stay unprotected.
        assert summaries[True] == {
            "dram_flips": 2, "remote_retries": 2,
            "dram_flips_unprotected": 23,
        }
        assert summaries[True] == summaries[False]

    @staticmethod
    def _merged_faults(link, **rule):
        plan = FaultPlan(link=(LinkFault(kind="corrupt", link=link,
                                         tag="remote", **rule),), seed=1)
        result = run_scheme("doram+2", "libq", 300, merge_short_reads=True,
                            faults=FaultController(plan))
        return result.fault_summary["faults"]

    def test_corrupt_merged_packets_are_injectable(self):
        """A corrupt merged packet marks every chain it carries; none
        sails through as uninjectable."""
        faults = self._merged_faults("bob0.up", rate=0.05)
        assert faults.get("uninjectable", 0) == 0
        assert faults["link_corrupts"] > 0
        assert faults["remote_retries"] >= faults["link_corrupts"]

    @pytest.mark.parametrize("link", ["bob0.up", "bob1.down"])
    def test_corrupt_merged_packet_is_caught_at_either_hop(self, link):
        """The first ``remote`` packet on the secure link's up direction
        and on a normal link's down direction is a merged short read;
        corrupting it re-runs each block's chain at its MAC check."""
        faults = self._merged_faults(link, packets=(0,))
        assert faults.get("uninjectable", 0) == 0
        assert faults["link_corrupts"] == 1
        assert faults["remote_retries"] >= 1

    def test_armed_empty_plan_on_merged_run_is_bit_identical(self):
        bare = run_scheme("doram+2", "libq", 300, merge_short_reads=True)
        armed = run_scheme("doram+2", "libq", 300, merge_short_reads=True,
                           faults=FaultController(FaultPlan()))
        assert armed.to_json_dict() == bare.to_json_dict()

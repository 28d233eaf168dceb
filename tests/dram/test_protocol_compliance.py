"""Replay scheduler command streams through the JEDEC protocol checker.

The timing model back-dates PRE/ACT preparation analytically instead of
simulating command slots; these tests record the *implied* command
stream from real scheduler runs (``Channel.start_command_log()``) and
replay it through :class:`repro.dram.compliance.ProtocolChecker`, an
independent referee that knows the JEDEC rules but nothing about the
planner's arithmetic, under the open-page policy of the paper's FR-FCFS
configuration.
"""

import random

import pytest

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.dram.compliance import (
    DramCommand,
    ProtocolChecker,
    ProtocolViolation,
)
from repro.dram.timing import ChannelParams, DDR3_1600 as T
from repro.sim.engine import Engine


def _drive(channel, engine, ops):
    """Enqueue a request stream, respecting backpressure, and run the
    engine dry."""
    pending = list(ops)

    def feed():
        while pending:
            op, bank, row = pending[0]
            if not channel.can_accept(op):
                channel.notify_on_space(feed)
                return
            pending.pop(0)
            channel.enqueue(MemRequest(op, 0, 0, bank=bank, row=row))

    feed()
    engine.run()
    # Anything still held back gets fed as the queues drain.
    while pending:
        feed()
        engine.run()


def _mixed_ops(n=120, banks=8, rows=6, write_frac=0.4, seed=3):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        op = OpType.WRITE if rng.random() < write_frac else OpType.READ
        ops.append((op, rng.randrange(banks), rng.randrange(rows)))
    return ops


def _run_policy(ops=None, **channel_kw):
    engine = Engine()
    channel = Channel(engine, "ch0", **channel_kw)
    log = channel.start_command_log()
    _drive(channel, engine, ops or _mixed_ops())
    return channel, log


def command_mix(commands):
    """Command-mix accounting: how many commands of each kind a stream
    holds (the tests sanity-check coverage with it)."""
    out = {}
    for _time, kind, *_ in commands:
        out[kind] = out.get(kind, 0) + 1
    return out


class TestOpenPageCompliance:
    def test_mixed_stream_is_compliant(self):
        channel, log = _run_policy()
        checker = ProtocolChecker(T, channel.params.num_banks)
        assert checker.check(log) == []
        mix = command_mix(log)
        # The stream must actually exercise every command type the
        # open-page policy can emit.
        assert mix.get("ACT", 0) > 0
        assert mix.get("PRE", 0) > 0          # row conflicts
        assert mix.get("RD", 0) > 0 and mix.get("WR", 0) > 0

    def test_write_drain_burst_is_compliant(self):
        # Hammer writes past the drain watermark, then reads (tWTR path).
        ops = [(OpType.WRITE, b % 8, b % 4) for b in range(60)]
        ops += [(OpType.READ, b % 8, b % 4) for b in range(30)]
        channel, log = _run_policy(
            ops=ops,
            params=ChannelParams(write_drain_hi=8, write_drain_lo=2),
        )
        assert ProtocolChecker(T, 8).check(log) == []

    def test_single_bank_conflict_storm_is_compliant(self):
        # Alternating rows on one bank, one request in flight at a time
        # (batch feeding would let FR-FCFS group the row hits and dodge
        # the conflicts): every access is a conflict, so the PRE -> ACT
        # -> CAS chain and tRC pacing all get exercised.
        engine = Engine()
        channel = Channel(engine, "ch0")
        log = channel.start_command_log()
        for i in range(40):
            channel.enqueue(MemRequest(OpType.READ, 0, 0, bank=0, row=i % 2))
            engine.run()
        checker = ProtocolChecker(T, 8)
        assert checker.check(log) == []
        assert command_mix(log)["PRE"] >= 38

    def test_refresh_windows_are_compliant(self):
        # Open-loop arrivals spread across simulated time so the rank's
        # tREFI deadline actually passes while traffic is in flight
        # (saturating the queues instead would chain serviced bursts far
        # ahead of the decision clock and starve the refresh check).
        engine = Engine()
        channel = Channel(engine, "ch0")
        log = channel.start_command_log()
        period = 200
        n = T.tREFI // period + 50
        for i in range(n):
            req = MemRequest(OpType.READ, 0, 0,
                             bank=i % 8, row=(i // 8) % 4)
            engine.at(i * period, lambda r=req: channel.enqueue(r))
        engine.run()
        checker = ProtocolChecker(T, 8)
        assert checker.check(log) == []
        assert command_mix(log).get("REF", 0) >= 1
        assert channel.rank.refreshes >= 1


class TestCheckerCatchesViolations:
    """The referee itself must reject hand-made illegal streams."""

    def _legal_prefix(self):
        return [
            DramCommand(0, "ACT", 0, 5),
            DramCommand(T.tRCD, "RD", 0, 5),
        ]

    def test_cas_before_act(self):
        with pytest.raises(ProtocolViolation, match="CAS before ACT"):
            ProtocolChecker(T).check([DramCommand(0, "RD", 0, 1)])

    def test_cas_wrong_row(self):
        cmds = self._legal_prefix() + [
            DramCommand(T.tRCD + 1, "RD", 0, 6),
        ]
        with pytest.raises(ProtocolViolation, match="row 6"):
            ProtocolChecker(T).check(cmds)

    def test_cas_inside_trcd(self):
        cmds = [DramCommand(0, "ACT", 0, 5),
                DramCommand(T.tRCD - 1, "RD", 0, 5)]
        with pytest.raises(ProtocolViolation, match="tRCD"):
            ProtocolChecker(T).check(cmds)

    def test_act_without_pre(self):
        cmds = self._legal_prefix() + [
            DramCommand(10 * T.tRC, "ACT", 0, 7),
        ]
        with pytest.raises(ProtocolViolation, match="missing PRE"):
            ProtocolChecker(T).check(cmds)

    def test_pre_inside_tras(self):
        cmds = [DramCommand(0, "ACT", 0, 5),
                DramCommand(T.tRAS - 1, "PRE", 0)]
        with pytest.raises(ProtocolViolation, match="tRAS"):
            ProtocolChecker(T).check(cmds)

    def test_act_inside_trp(self):
        cmds = [
            DramCommand(0, "ACT", 0, 5),
            DramCommand(T.tRAS + T.tRTP, "PRE", 0),
            DramCommand(T.tRAS + T.tRTP + T.tRP - 1, "ACT", 0, 6),
        ]
        with pytest.raises(ProtocolViolation, match="tRP"):
            ProtocolChecker(T).check(cmds)

    def test_trrd_between_banks(self):
        cmds = [DramCommand(0, "ACT", 0, 1),
                DramCommand(T.tRRD - 1, "ACT", 1, 1)]
        with pytest.raises(ProtocolViolation, match="tRRD"):
            ProtocolChecker(T).check(cmds)

    def test_tfaw_five_activates(self):
        cmds = [
            DramCommand(i * T.tRRD, "ACT", i, 1) for i in range(4)
        ]
        cmds.append(DramCommand(T.tFAW - 1, "ACT", 4, 1))
        with pytest.raises(ProtocolViolation, match="tFAW"):
            ProtocolChecker(T).check(cmds)

    def test_twtr_write_to_read(self):
        cmds = [
            DramCommand(0, "ACT", 0, 1),
            DramCommand(T.tRCD, "WR", 0, 1),
            # Read CAS immediately after write data: violates tWTR.
            DramCommand(T.tRCD + T.tCWL + T.tBURST, "RD", 0, 1),
        ]
        with pytest.raises(ProtocolViolation, match="tWTR"):
            ProtocolChecker(T).check(cmds)

    def test_non_strict_accumulates(self):
        checker = ProtocolChecker(T)
        violations = checker.check(
            [DramCommand(0, "RD", 0, 1), DramCommand(1, "WR", 0, 1)],
            strict=False,
        )
        assert len(violations) >= 2

    def test_tfaw_spaced_activates_pass(self):
        cmds = [
            DramCommand(0, "ACT", 0, 1),
            DramCommand(T.tRRD, "ACT", 1, 1),
            DramCommand(2 * T.tRRD, "ACT", 2, 1),
            DramCommand(3 * T.tRRD, "ACT", 3, 1),
            DramCommand(T.tFAW, "ACT", 4, 1),
        ]
        assert ProtocolChecker(T).check(cmds) == []


# ---------------------------------------------------------------------------
# One-entry mutations of a captured stream
# ---------------------------------------------------------------------------

def _moved(stream, i, time):
    """``stream`` with entry ``i`` moved to ``time``."""
    mutant = list(stream)
    mutant[i] = (time,) + tuple(stream[i][1:])
    return mutant


def _acts(stream):
    return [i for i, (_time, kind, *_) in enumerate(stream) if kind == "ACT"]


def _act_inside_trrd(stream):
    """The first ACT that tRRD bound exactly, one tick earlier."""
    acts = _acts(stream)
    i = next(b for a, b in zip(acts, acts[1:])
             if stream[b][0] == stream[a][0] + T.tRRD)
    return _moved(stream, i, stream[i][0] - 1)


def _act_inside_tfaw(stream):
    """The first ACT that tFAW bound exactly, one tick earlier."""
    acts = _acts(stream)
    i = next(b for a, b in zip(acts, acts[4:])
             if stream[b][0] == stream[a][0] + T.tFAW)
    return _moved(stream, i, stream[i][0] - 1)


def _pre_dropped(stream):
    """The stream without its first PRE."""
    i = next(i for i, (_time, kind, *_) in enumerate(stream) if kind == "PRE")
    return stream[:i] + stream[i + 1:]


def _rd_inside_trcd(stream):
    """The first RD, moved one tick before its bank's ACT + tRCD."""
    i = next(i for i, (_time, kind, *_) in enumerate(stream) if kind == "RD")
    act = next(c for c in reversed(stream[:i])
               if c[1] == "ACT" and c[2] == stream[i][2])
    return _moved(stream, i, act[0] + T.tRCD - 1)


def _ref_end_moved(stream):
    """The first refresh window, its end one tick later."""
    i = next(i for i, (_time, kind, *_) in enumerate(stream) if kind == "REF")
    ref = stream[i]
    return stream[:i] + [tuple(ref[:4]) + (ref[4] + 1,)] + stream[i + 1:]


#: Each mutation with the exact violations the referee reports on it.
CAPTURED_MUTANTS = [
    (_act_inside_trrd, ["@99: ACT violates tRRD (last rank ACT at 0)"]),
    (_act_inside_tfaw,
     ["@3219: 5th ACT inside the tFAW window (4 activates back at 2740)"]),
    (_pre_dropped, ["@780: ACT bank 7 while row 5 still open (missing PRE)"]),
    (_rd_inside_trcd, ["@219: RD bank 7 violates tRCD (ACT at 0)"]),
    (_ref_end_moved, [
        "@128960: ACT bank 7 while row 2 still open (missing PRE)",
        "@129180: WR bank 7 with no open row (CAS before ACT)",
        "@129660: PRE bank 7 already precharged",
    ]),
]


@pytest.fixture(scope="module")
def captured():
    """A real captured stream in command-bus order: 800 mixed reads and
    writes on one channel, long enough to take one refresh window."""
    _channel, log = _run_policy(ops=_mixed_ops(n=800))
    return sorted(log, key=lambda c: c[4] if c[1] == "REF" else c[0])


class TestRefereeBitesOnCapturedStreams:
    def test_capture_is_compliant(self, captured):
        assert ProtocolChecker(T).check(captured) == []
        assert command_mix(captured)["REF"] == 1

    @pytest.mark.parametrize("row", [tuple, DramCommand._make],
                             ids=["tuple", "DramCommand"])
    @pytest.mark.parametrize(
        "mutate, expected", CAPTURED_MUTANTS,
        ids=[mutate.__name__.strip("_") for mutate, _ in CAPTURED_MUTANTS],
    )
    def test_one_entry_mutation_is_reported(self, captured, mutate,
                                            expected, row):
        stream = [row(entry) for entry in mutate(captured)]
        assert ProtocolChecker(T).check(stream, strict=False) == expected
        with pytest.raises(ProtocolViolation) as raised:
            ProtocolChecker(T).check(stream)
        assert str(raised.value) == expected[0]

    def test_each_call_reports_only_its_own_stream(self, captured):
        checker = ProtocolChecker(T)
        bad = _pre_dropped(captured)
        assert checker.check(bad, strict=False) != []
        assert checker.check(captured, strict=False) == []


class TestLoggingIsInert:
    def test_no_log_by_default(self):
        engine = Engine()
        channel = Channel(engine, "ch0")
        channel.enqueue(MemRequest(OpType.READ, 0, 0, bank=0, row=0))
        engine.run()
        assert channel.command_log is None
        assert all(b.log is None for b in channel.banks)

    def test_logging_does_not_change_timing(self):
        done_plain, done_logged = [], []
        for sink, log_on in ((done_plain, False), (done_logged, True)):
            engine = Engine()
            channel = Channel(engine, "ch0")
            if log_on:
                channel.start_command_log()
            for op, bank, row in _mixed_ops(n=60):
                channel.enqueue(MemRequest(
                    op, 0, 0, bank=bank, row=row,
                    on_complete=lambda t, s=sink: s.append(t),
                ))
            engine.run()
        assert done_plain == done_logged

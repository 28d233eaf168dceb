"""DRAM protocol-compliance checking.

The timing model never materializes individual command slots -- the bank
back-dates PRECHARGE/ACTIVATE preparation analytically (see
:mod:`repro.dram.bank`).  That efficiency is exactly why an independent
referee is valuable: :class:`ProtocolChecker` replays the *implied*
command stream (recorded by ``Channel.start_command_log()``) against the
JEDEC rules as a real DDR3 device would enforce them, with no knowledge
of the planner's arithmetic.  Any scheduling bug that slips an ACTIVATE
inside tRRD/tFAW, a column command before tRCD, or a PRECHARGE inside
tRAS/tWR/tRTP recovery fails loudly here even if aggregate latencies
still look plausible.

Checked rules
-------------
========  ==========================================================
ACT       bank must be precharged (PRE before re-ACT); >= PRE+tRP;
          >= previous same-bank ACT + tRC; rank-wide >= last ACT +
          tRRD and >= 4th-most-recent ACT + tFAW
RD/WR     row must be open and match (ACT before CAS); >= ACT+tRCD;
          RD additionally >= last write-data end + tWTR (rank)
PRE       row must be open; >= ACT+tRAS; >= last read CAS + tRTP;
          >= last write-data end + tWR
REF       treated as closing every bank at the window end
========  ==========================================================
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.dram.timing import DDR3Timing


class DramCommand(NamedTuple):
    """One command on the (implied) command bus.

    A named tuple (not a frozen dataclass): a captured channel records
    one per implied command, and the tuple is about three times cheaper
    to build."""

    time: int
    #: ``"PRE" | "ACT" | "RD" | "WR" | "REF"``
    kind: str
    bank: int
    #: Row for ACT/RD/WR; ``None`` for PRE; REF carries no row.
    row: Optional[int] = None
    #: REF only: end of the refresh window.
    end: Optional[int] = None


class ProtocolViolation(AssertionError):
    """A command stream broke a JEDEC timing or state rule."""


class _BankState:
    __slots__ = ("open_row", "act_time", "pre_time",
                 "last_read_cas", "last_write_end")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.act_time = -(10 ** 12)
        self.pre_time = -(10 ** 12)
        self.last_read_cas = -(10 ** 12)
        self.last_write_end = -(10 ** 12)


class ProtocolChecker:
    """Replay a command stream and collect (or raise on) violations.

    Commands may be recorded out of timestamp order -- the bank
    back-dates preparation while the data bus serializes bursts -- so
    the checker first sorts by time (stable, so simultaneous commands
    keep their recorded order) to reconstruct the command-bus order a
    device would observe.
    """

    def __init__(self, timing: DDR3Timing, num_banks: int = 8) -> None:
        self.timing = timing
        self.num_banks = num_banks
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    def check(self, commands: Sequence[DramCommand],
              strict: bool = True) -> List[str]:
        """Validate a stream; returns the violation list.

        ``strict=True`` raises :class:`ProtocolViolation` on the first
        rule broken instead of accumulating.
        """
        t = self.timing
        banks: Dict[int, _BankState] = {
            b: _BankState() for b in range(self.num_banks)
        }
        rank_acts: List[int] = []
        rank_write_end = -(10 ** 12)

        def fail(message: str) -> None:
            self.violations.append(message)
            if strict:
                raise ProtocolViolation(message)

        # REF sorts by its window *end*: the model back-dates the refresh
        # start to the tREFI deadline, so commands from the access
        # committed just before the refresh was detected may carry
        # timestamps inside the window.  The bank-closing effect only
        # matters once the window ends.
        def bus_order(c: DramCommand) -> int:
            if c.kind == "REF" and c.end is not None:
                return c.end
            return c.time

        for cmd in sorted(commands, key=bus_order):
            if cmd.kind == "REF":
                closing = cmd.end if cmd.end is not None else cmd.time
                for state in banks.values():
                    state.open_row = None
                    state.pre_time = max(state.pre_time, closing - t.tRP)
                continue
            if cmd.bank not in banks:
                fail(f"@{cmd.time}: command to bank {cmd.bank} "
                     f"outside 0..{self.num_banks - 1}")
                continue
            state = banks[cmd.bank]

            if cmd.kind == "ACT":
                if state.open_row is not None:
                    fail(f"@{cmd.time}: ACT bank {cmd.bank} while row "
                         f"{state.open_row} still open (missing PRE)")
                if cmd.time - state.pre_time < t.tRP:
                    fail(f"@{cmd.time}: ACT bank {cmd.bank} violates tRP "
                         f"(PRE at {state.pre_time})")
                if cmd.time - state.act_time < t.tRC:
                    fail(f"@{cmd.time}: ACT bank {cmd.bank} violates tRC "
                         f"(previous ACT at {state.act_time})")
                if rank_acts and cmd.time - rank_acts[-1] < t.tRRD:
                    fail(f"@{cmd.time}: ACT violates tRRD "
                         f"(last rank ACT at {rank_acts[-1]})")
                if len(rank_acts) >= 4 and \
                        cmd.time - rank_acts[-4] < t.tFAW:
                    fail(f"@{cmd.time}: 5th ACT inside the tFAW window "
                         f"(4 activates back at {rank_acts[-4]})")
                rank_acts.append(cmd.time)
                if len(rank_acts) > 4:
                    rank_acts.pop(0)
                state.open_row = cmd.row
                state.act_time = cmd.time

            elif cmd.kind in ("RD", "WR"):
                if state.open_row is None:
                    fail(f"@{cmd.time}: {cmd.kind} bank {cmd.bank} with "
                         f"no open row (CAS before ACT)")
                elif state.open_row != cmd.row:
                    fail(f"@{cmd.time}: {cmd.kind} bank {cmd.bank} row "
                         f"{cmd.row} but row {state.open_row} is open")
                if cmd.time - state.act_time < t.tRCD:
                    fail(f"@{cmd.time}: {cmd.kind} bank {cmd.bank} "
                         f"violates tRCD (ACT at {state.act_time})")
                if cmd.kind == "RD":
                    if cmd.time - rank_write_end < t.tWTR:
                        fail(f"@{cmd.time}: RD violates tWTR "
                             f"(write data ended at {rank_write_end})")
                    state.last_read_cas = cmd.time
                else:
                    write_end = cmd.time + t.tCWL + t.tBURST
                    state.last_write_end = max(state.last_write_end,
                                               write_end)
                    rank_write_end = max(rank_write_end, write_end)

            elif cmd.kind == "PRE":
                if state.open_row is None:
                    fail(f"@{cmd.time}: PRE bank {cmd.bank} already "
                         f"precharged")
                if cmd.time - state.act_time < t.tRAS:
                    fail(f"@{cmd.time}: PRE bank {cmd.bank} violates tRAS "
                         f"(ACT at {state.act_time})")
                if cmd.time - state.last_read_cas < t.tRTP:
                    fail(f"@{cmd.time}: PRE bank {cmd.bank} violates tRTP "
                         f"(RD CAS at {state.last_read_cas})")
                if cmd.time - state.last_write_end < t.tWR:
                    fail(f"@{cmd.time}: PRE bank {cmd.bank} violates tWR "
                         f"(write data ended at {state.last_write_end})")
                state.open_row = None
                state.pre_time = cmd.time

            else:
                fail(f"@{cmd.time}: unknown command kind {cmd.kind!r}")
        return self.violations

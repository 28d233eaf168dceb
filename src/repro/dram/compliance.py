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

from typing import List, NamedTuple, Optional, Sequence

from repro.dram.timing import DDR3Timing


class DramCommand(NamedTuple):
    """One command on the (implied) command bus: the row type of a
    hand-built stream.  A captured channel logs plain tuples of the same
    fields, one append per implied command; the checker reads either."""

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

    # ------------------------------------------------------------------
    def check(self, commands: Sequence[DramCommand],
              strict: bool = True) -> List[str]:
        """Validate one stream; returns its violations.

        Each entry is a ``(time, kind, bank, row, end)`` tuple: a
        :class:`DramCommand`, or the plain tuple a captured channel logs.
        ``strict=True`` raises :class:`ProtocolViolation` on the first
        rule broken instead of accumulating.
        """
        t = self.timing
        tRP, tRC, tRRD, tFAW = t.tRP, t.tRC, t.tRRD, t.tFAW
        tRCD, tWTR, tRAS, tRTP, tWR = t.tRCD, t.tWTR, t.tRAS, t.tRTP, t.tWR
        write_span = t.tCWL + t.tBURST
        num_banks = self.num_banks
        banks = range(num_banks)
        never = -(10 ** 12)
        # Per-bank state, indexed by bank.
        open_row: List[Optional[int]] = [None] * num_banks
        act_time = [never] * num_banks
        pre_time = [never] * num_banks
        last_read_cas = [never] * num_banks
        last_write_end = [never] * num_banks
        rank_acts: List[int] = []
        rank_write_end = never
        violations: List[str] = []

        def fail(message: str) -> None:
            violations.append(message)
            if strict:
                raise ProtocolViolation(message)

        # REF sorts by its window *end*: the model back-dates the refresh
        # start to the tREFI deadline, so commands from the access
        # committed just before the refresh was detected may carry
        # timestamps inside the window.  The bank-closing effect only
        # matters once the window ends.
        keys = [end if kind == "REF" and end is not None else time
                for time, kind, _bank, _row, end in commands]
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            time, kind, bank, row, end = commands[i]
            if kind == "REF":
                closed = (end if end is not None else time) - tRP
                open_row = [None] * num_banks
                pre_time = [p if p > closed else closed for p in pre_time]
                continue
            if bank not in banks:
                fail(f"@{time}: command to bank {bank} "
                     f"outside 0..{num_banks - 1}")
                continue

            if kind == "ACT":
                if open_row[bank] is not None:
                    fail(f"@{time}: ACT bank {bank} while row "
                         f"{open_row[bank]} still open (missing PRE)")
                if time - pre_time[bank] < tRP:
                    fail(f"@{time}: ACT bank {bank} violates tRP "
                         f"(PRE at {pre_time[bank]})")
                if time - act_time[bank] < tRC:
                    fail(f"@{time}: ACT bank {bank} violates tRC "
                         f"(previous ACT at {act_time[bank]})")
                if rank_acts and time - rank_acts[-1] < tRRD:
                    fail(f"@{time}: ACT violates tRRD "
                         f"(last rank ACT at {rank_acts[-1]})")
                if len(rank_acts) >= 4 and time - rank_acts[-4] < tFAW:
                    fail(f"@{time}: 5th ACT inside the tFAW window "
                         f"(4 activates back at {rank_acts[-4]})")
                rank_acts.append(time)
                if len(rank_acts) > 4:
                    del rank_acts[0]
                open_row[bank] = row
                act_time[bank] = time

            elif kind == "RD" or kind == "WR":
                if open_row[bank] is None:
                    fail(f"@{time}: {kind} bank {bank} with "
                         f"no open row (CAS before ACT)")
                elif open_row[bank] != row:
                    fail(f"@{time}: {kind} bank {bank} row "
                         f"{row} but row {open_row[bank]} is open")
                if time - act_time[bank] < tRCD:
                    fail(f"@{time}: {kind} bank {bank} "
                         f"violates tRCD (ACT at {act_time[bank]})")
                if kind == "RD":
                    if time - rank_write_end < tWTR:
                        fail(f"@{time}: RD violates tWTR "
                             f"(write data ended at {rank_write_end})")
                    last_read_cas[bank] = time
                else:
                    write_end = time + write_span
                    if write_end > last_write_end[bank]:
                        last_write_end[bank] = write_end
                    if write_end > rank_write_end:
                        rank_write_end = write_end

            elif kind == "PRE":
                if open_row[bank] is None:
                    fail(f"@{time}: PRE bank {bank} already precharged")
                if time - act_time[bank] < tRAS:
                    fail(f"@{time}: PRE bank {bank} violates tRAS "
                         f"(ACT at {act_time[bank]})")
                if time - last_read_cas[bank] < tRTP:
                    fail(f"@{time}: PRE bank {bank} violates tRTP "
                         f"(RD CAS at {last_read_cas[bank]})")
                if time - last_write_end[bank] < tWR:
                    fail(f"@{time}: PRE bank {bank} violates tWR "
                         f"(write data ended at {last_write_end[bank]})")
                open_row[bank] = None
                pre_time[bank] = time

            else:
                fail(f"@{time}: unknown command kind {kind!r}")
        return violations

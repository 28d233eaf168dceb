"""Fork Path read merging in the timing controller."""

import pytest

from repro.dram.commands import OpType
from repro.oram.config import OramConfig
from repro.oram.controller import BlockSink, OramController
from repro.oram.layout import OramLayout
from repro.sim.engine import Engine

HOME = [(0, 0), (0, 1), (0, 2), (0, 3)]


class CountingSink(BlockSink):
    def __init__(self, engine):
        self.engine = engine
        self.reads = []
        self.writes = []

    def issue_phase(self, placements, op, on_done):
        (self.writes if op is OpType.WRITE else self.reads).extend(placements)
        for _ in placements:
            self.engine.after(10, lambda: on_done(self.engine.now))
        return [], len(placements)

    def notify_on_space(self, callback):
        raise AssertionError("unbounded sink never lacks space")


def run_accesses(leaves, fork_path):
    eng = Engine()
    cfg = OramConfig(leaf_level=6, treetop_levels=0, subtree_levels=2)
    layout = OramLayout(cfg, HOME)
    sink = CountingSink(eng)
    ctrl = OramController(eng, cfg, layout, sink, seed=1,
                          fork_path=fork_path)
    # Drive fixed leaves by monkey-patching the dummy path source.
    leaf_iter = iter(leaves)
    ctrl.state.dummy_path = lambda: next(leaf_iter)
    for _ in leaves:
        ctrl.begin_read(None, lambda t: None)
        eng.run()
        ctrl.begin_write(lambda t: None)
        eng.run()
    return cfg, sink, ctrl


class TestForkPath:
    def test_identical_paths_skip_all_reads_second_time(self):
        cfg, sink, ctrl = run_accesses([5, 5], fork_path=True)
        per_path = cfg.num_levels * cfg.bucket_size
        # First access reads the full path, second reads nothing.
        assert len(sink.reads) == per_path
        assert ctrl.stats.counter("fork_skipped_blocks").value == per_path

    def test_disjoint_leaves_share_only_root_prefix(self):
        # Leaves 0 and 63 in a 6-level tree share only the root.
        cfg, sink, ctrl = run_accesses([0, 63], fork_path=True)
        skipped = ctrl.stats.counter("fork_skipped_blocks").value
        assert skipped == cfg.bucket_size  # the root bucket's Z blocks

    def test_writes_never_skipped(self):
        cfg, sink, _ = run_accesses([5, 5], fork_path=True)
        per_path = cfg.num_levels * cfg.bucket_size
        assert len(sink.writes) == 2 * per_path

    def test_disabled_by_default(self):
        cfg, sink, ctrl = run_accesses([5, 5], fork_path=False)
        per_path = cfg.num_levels * cfg.bucket_size
        assert len(sink.reads) == 2 * per_path
        assert ctrl.stats.counter("fork_skipped_blocks").value == 0

    def test_overlap_resets_each_access(self):
        # a -> b -> a: the third access overlaps with b's path, not a's.
        cfg, sink, ctrl = run_accesses([0, 63, 0], fork_path=True)
        skipped = ctrl.stats.counter("fork_skipped_blocks").value
        # Each consecutive pair shares exactly the root.
        assert skipped == 2 * cfg.bucket_size

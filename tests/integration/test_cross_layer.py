"""Consistency between the functional and timing ORAM layers.

The two layers share the protocol but not code paths for the access
itself; these tests pin them to each other so a drift in one is caught.
"""

from repro.dram.commands import OpType
from repro.oram.config import OramConfig
from repro.oram.controller import BlockSink, OramController
from repro.oram.layout import OramLayout
from repro.oram.path_oram import PathOram
from repro.sim.engine import Engine

CFG = OramConfig(leaf_level=7, treetop_levels=2, subtree_levels=3)


class _CollectingSink(BlockSink):
    def __init__(self, engine):
        self.engine = engine
        self.ops = []

    def issue_phase(self, placements, op, on_done):
        for placement in placements:
            self.ops.append((op, placement.bucket))
            self.engine.after(1, lambda: on_done(self.engine.now))
        return [], len(placements)

    def notify_on_space(self, callback):
        raise AssertionError("unbounded sink")


class TestLayerConsistency:
    def test_blocks_touched_per_access_match(self):
        """Functional buckets-per-access x Z == timing block placements
        (for the non-cached levels)."""
        # Functional trace: buckets touched below the treetop.
        touched = []
        functional = PathOram(
            CFG, seed=1, trace_hook=lambda kind, b: touched.append((kind, b))
        )
        functional.read(0)
        func_read_buckets = [b for kind, b in touched if kind == "read"]

        # Timing side.
        eng = Engine()
        layout = OramLayout(CFG, [(0, i) for i in range(4)])
        sink = _CollectingSink(eng)
        controller = OramController(eng, CFG, layout, sink, seed=1)
        controller.begin_read(0, lambda t: None)
        eng.run()
        timing_reads = [b for op, b in sink.ops if op is OpType.READ]

        # The functional layer reads the full path (its "cache" is the
        # data structure itself); the timing layer skips the tree-top.
        assert len(timing_reads) == (
            (len(func_read_buckets) - CFG.treetop_levels) * CFG.bucket_size
        )

    def test_path_selection_distributions_agree(self):
        """Both layers draw uniformly random leaves: over many accesses
        of one block, the leaf-level buckets they touch cover a similar
        spread."""
        touched = []
        functional = PathOram(
            CFG, seed=5, trace_hook=lambda kind, b: touched.append(b)
        )
        for _ in range(60):
            functional.read(3)
        leaf_lo = 1 << CFG.leaf_level
        func_leaves = {b for b in touched if b >= leaf_lo}

        eng = Engine()
        layout = OramLayout(CFG, [(0, i) for i in range(4)])
        sink = _CollectingSink(eng)
        controller = OramController(eng, CFG, layout, sink, seed=5)
        for _ in range(60):
            controller.begin_read(3, lambda t: None)
            eng.run()
            controller.begin_write(lambda t: None)
            eng.run()
        timing_leaves = {
            b for _op, b in sink.ops if b >= leaf_lo
        }
        # Uniform sampling of 2^7 = 128 leaves, 60 draws: both should
        # cover a substantial, similar fraction.
        assert len(func_leaves) > 30
        assert len(timing_leaves) > 30

    def test_both_layers_remap_on_access(self):
        functional = PathOram(CFG, seed=2)
        f_before = functional.state.position_map.lookup(9)
        functional.read(9)

        eng = Engine()
        layout = OramLayout(CFG, [(0, i) for i in range(4)])
        controller = OramController(eng, CFG, layout, _CollectingSink(eng),
                                    seed=2)
        t_before = controller.state.position_map.lookup(9)
        controller.begin_read(9, lambda t: None)
        eng.run()
        # Remap happened in both (values may coincide by chance for one
        # block; check the mechanism ran by confirming map entries are
        # materialized/refreshed).
        assert functional.accesses == 1
        assert controller.stats.counter("real_accesses").value == 1
        assert 0 <= functional.state.position_map.lookup(9) < CFG.num_leaves
        assert 0 <= controller.state.position_map.lookup(9) < CFG.num_leaves

"""Secure delegator hardware budget (Section III-E)."""

import pytest

from repro.core.hardware import (
    PAPER_BUDGET_MM2,
    DelegatorBudget,
    size_delegator,
)
from repro.oram.config import OramConfig


class TestSizing:
    def test_flat_position_map_dominates_at_l23(self):
        # The honest reproduction finding: a flat position map for the
        # paper's 4 GB tree is ~100 MB of SRAM -- it cannot fit the
        # 1 mm^2 envelope the paper cites.
        budget = size_delegator(OramConfig())
        assert budget.position_map_bytes > 50 * 2**20
        assert budget.area_mm2 > PAPER_BUDGET_MM2

    def test_recursive_map_fits_budget(self):
        # With the position map recursed into the tree, the SD carries
        # only stash + tree-top + top map and fits comfortably.
        budget = size_delegator(OramConfig(), recursive_position_map=True)
        assert budget.area_mm2 <= PAPER_BUDGET_MM2
        assert budget.area_mm2 < PAPER_BUDGET_MM2

    def test_small_tree_fits_either_way(self):
        budget = size_delegator(OramConfig(leaf_level=16))
        assert budget.area_mm2 <= PAPER_BUDGET_MM2

    def test_treetop_bytes_grow_with_cached_levels(self):
        shallow = size_delegator(OramConfig(treetop_levels=1))
        deep = size_delegator(OramConfig(treetop_levels=6))
        assert deep.treetop_bytes > shallow.treetop_bytes

    def test_area_components_additive(self):
        budget = size_delegator(OramConfig(leaf_level=10))
        more_aes = size_delegator(OramConfig(leaf_level=10), aes_cores=10)
        assert more_aes.area_mm2 > budget.area_mm2

    def test_validation(self):
        with pytest.raises(ValueError):
            size_delegator(OramConfig(), stash_entries=0)

    def test_sram_total(self):
        budget = DelegatorBudget(100, 200, 300, aes_cores=1)
        assert budget.sram_bytes == 600

"""Cost model: cache simulation, cycle costs, OpenMP roofline."""

import pytest

from repro.runtime.cost_model import (
    ALLOCATOR_CONTENTION_CYCLES,
    CacheLevel,
    CacheModel,
    CostAccounting,
    CostReport,
    CycleCosts,
    ROCKET_CYCLE_COSTS,
)


class TestCacheModel:
    def test_cold_miss_then_hit(self):
        cache = CacheModel()
        cache.access("r", 0x1000, 8)
        assert cache.misses_to_dram == 1
        cache.access("r", 0x1000, 8)
        assert cache.misses_to_dram == 1
        assert cache.hits[0] == 1

    def test_same_line_shares(self):
        cache = CacheModel()
        cache.access("r", 0x1000, 8)
        cache.access("r", 0x1008, 8)  # same 64B line
        assert cache.misses_to_dram == 1

    def test_straddling_access_touches_two_lines(self):
        cache = CacheModel()
        cache.access("r", 0x103C, 16)  # crosses a line boundary
        assert cache.misses_to_dram == 2

    def test_lru_eviction(self):
        tiny = CacheModel(levels=(CacheLevel("L1", 128, 64, 4),))
        tiny.access("r", 0, 8)       # line 0
        tiny.access("r", 64, 8)      # line 1 (cache full)
        tiny.access("r", 128, 8)     # evicts line 0
        tiny.access("r", 0, 8)       # must miss again
        assert tiny.misses_to_dram == 4

    def test_l2_catches_l1_eviction(self):
        cache = CacheModel(levels=(
            CacheLevel("L1", 128, 64, 4),
            CacheLevel("L2", 4096, 64, 12),
        ))
        for line in range(4):
            cache.access("r", line * 64, 8)
        cache.access("r", 0, 8)  # gone from L1 (2 lines) but in L2
        assert cache.hits[1] >= 1

    def test_dram_bytes_accumulate(self):
        cache = CacheModel()
        for i in range(10):
            cache.access("r", i * 4096, 8)
        assert cache.dram_bytes == 10 * 64


class TestCycleCosts:
    def test_mpfr_cost_scales_with_precision(self):
        costs = CycleCosts()
        assert costs.mpfr_op_cost("mpfr_add", 512) > \
            costs.mpfr_op_cost("mpfr_add", 64)
        # Multiplication scales quadratically in words, addition linearly.
        mul_ratio = costs.mpfr_op_cost("mpfr_mul", 512) / \
            costs.mpfr_op_cost("mpfr_mul", 64)
        add_ratio = costs.mpfr_op_cost("mpfr_add", 512) / \
            costs.mpfr_op_cost("mpfr_add", 64)
        assert mul_ratio > add_ratio

    def test_init_includes_allocation(self):
        costs = CycleCosts()
        assert costs.mpfr_op_cost("mpfr_init2", 128) > costs.malloc

    def test_rocket_slower_than_xeon(self):
        for name in ("mpfr_add", "mpfr_mul", "mpfr_init2", "mpfr_set"):
            assert ROCKET_CYCLE_COSTS.mpfr_op_cost(name, 500) > \
                CycleCosts().mpfr_op_cost(name, 500)

    def test_transcendental_most_expensive(self):
        costs = CycleCosts()
        assert costs.mpfr_op_cost("mpfr_exp", 256) > \
            costs.mpfr_op_cost("mpfr_div", 256) > \
            costs.mpfr_op_cost("mpfr_mul", 256) > \
            costs.mpfr_op_cost("mpfr_add", 256)


class TestParallelModel:
    def _report(self, serial, parallel, dram=0, allocs=0):
        report = CostReport()
        report.cycles = serial + parallel
        report.serial_cycles = serial
        report.parallel_cycles = parallel
        report.parallel_dram_bytes = dram
        report.parallel_heap_allocations = allocs
        return report

    def test_compute_bound_scales(self):
        report = self._report(serial=1000, parallel=1_600_000)
        t16 = report.parallel_time(16, fork_join=0)
        assert t16 == pytest.approx(1000 + 100_000)

    def test_bandwidth_floor_binds(self):
        report = self._report(serial=0, parallel=160_000,
                              dram=7_000_000)
        t16 = report.parallel_time(16, fork_join=0)
        assert t16 == pytest.approx(1_000_000)  # dram / 7 bytes-per-cycle

    def test_allocator_contention_binds(self):
        clean = self._report(serial=0, parallel=1_600_000)
        dirty = self._report(serial=0, parallel=1_600_000, allocs=10_000)
        assert dirty.parallel_time(16) > clean.parallel_time(16)
        expected_penalty = 10_000 * ALLOCATOR_CONTENTION_CYCLES * 15 / 16
        assert dirty.parallel_time(16) - clean.parallel_time(16) == \
            pytest.approx(expected_penalty)

    def test_single_thread_is_plain_cycles(self):
        report = self._report(serial=123, parallel=1000)
        assert report.parallel_time(1) == 1123

    def test_kernel_time_excludes_serial(self):
        report = self._report(serial=10_000, parallel=160_000)
        assert report.kernel_time(16, fork_join=0) == pytest.approx(10_000)


class TestAccounting:
    def test_parallel_region_tracking(self):
        acc = CostAccounting(cache=None)
        acc.charge("setup", 100)
        acc.parallel_begin()
        acc.charge("work", 500)
        acc.report.heap_allocations += 3
        acc.parallel_end()
        acc.charge("teardown", 50)
        report = acc.finalize()
        assert report.parallel_cycles == 500
        assert report.parallel_heap_allocations == 3
        assert report.serial_cycles == report.cycles - 500

    def test_nested_regions_counted_once(self):
        acc = CostAccounting(cache=None)
        acc.parallel_begin()
        acc.charge("a", 100)
        acc.parallel_begin()
        acc.charge("b", 100)
        acc.parallel_end()
        acc.charge("c", 100)
        acc.parallel_end()
        report = acc.finalize()
        assert report.parallel_cycles == 300

    def test_by_category(self):
        acc = CostAccounting(cache=None)
        acc.charge("mpfr", 10)
        acc.charge("mpfr", 5)
        acc.charge("int", 1)
        assert acc.report.by_category == {"mpfr": 15, "int": 1}


class TestMemoryModel:
    def test_stack_release_frees_cells(self):
        from repro.runtime.memory import Memory

        memory = Memory()
        mark = memory.stack_mark()
        addr = memory.alloc_stack(64)
        memory.store(addr, 1.25, 8)
        assert memory.load(addr, 8) == 1.25
        memory.stack_release(mark)
        assert memory.load(addr, 8, default=None) is None

    def test_heap_free_validates(self):
        from repro.runtime.memory import Memory, MemoryError_

        memory = Memory()
        addr = memory.alloc_heap(32)
        memory.free_heap(addr)
        with pytest.raises(MemoryError_):
            memory.free_heap(0x12345)

    def test_free_null_is_noop(self):
        from repro.runtime.memory import Memory

        Memory().free_heap(0)

    def test_null_access_traps(self):
        from repro.runtime.memory import Memory, MemoryError_

        memory = Memory()
        with pytest.raises(MemoryError_):
            memory.load(0, 8)
        with pytest.raises(MemoryError_):
            memory.store(0, 1, 8)

    def test_byte_io_round_trip(self):
        from repro.runtime.memory import Memory

        memory = Memory()
        addr = memory.alloc_heap(16)
        memory.store_bytes(addr, b"\x01\x02\x03")
        assert memory.load_bytes(addr, 3) == b"\x01\x02\x03"

    @pytest.mark.parametrize("block_bytes", [16, 4096])
    def test_free_leaves_neighbours(self, block_bytes):
        """Both free strategies: a block smaller and one larger than the
        live-cell count drop exactly the cells inside the block."""
        from repro.runtime.memory import Memory

        memory = Memory()
        before = memory.alloc_heap(16)
        block = memory.alloc_heap(block_bytes)
        after = memory.alloc_heap(512)
        memory.store(before, "below", 8)
        memory.store(before + 8, "below", 8)
        for offset in range(0, 512, 8):  # 64 live cells past the block
            memory.store(after + offset, "above", 8)
        inside = [block, block + 1, block + block_bytes - 8]
        for addr in inside:
            memory.store(addr, "inside", 8)
        memory.store(block + block_bytes, "edge", 8)
        memory.store(block - 1, "edge", 8)
        survivors = {a: c for a, c in memory.cells.items()
                     if a not in inside}
        memory.free_heap(block)
        assert memory.cells == survivors

    @pytest.mark.parametrize("span", [24, 10_000])
    def test_stack_release_leaves_outer_frames(self, span):
        from repro.runtime.memory import HEAP_BASE, Memory

        memory = Memory()
        outer = memory.alloc_stack(8)
        memory.store(outer, "outer", 8)
        for offset in range(0, 512, 8):  # 64 live heap cells
            memory.store(HEAP_BASE + offset, "heap", 8)
        kept = dict(memory.cells)
        mark = memory.stack_mark()
        inner = memory.alloc_stack(span)
        memory.store(inner, "inner", 8)
        memory.store(inner + span - 1, "inner", 1)
        memory.stack_release(mark)
        assert memory.cells == kept

    @pytest.mark.parametrize("nbytes", [16, 4096])
    def test_copy_range_moves_only_the_span(self, nbytes):
        from repro.runtime.memory import Memory

        memory = Memory()
        src = memory.alloc_heap(nbytes + 8)
        dst = memory.alloc_heap(nbytes + 8)
        filler = memory.alloc_heap(512)
        for offset in range(0, 512, 8):  # 64 live cells elsewhere
            memory.store(filler + offset, "filler", 8)
        memory.store(src, "a", 8)
        memory.store(src + nbytes - 8, "b", 8)
        memory.store(src + nbytes, "outside", 8)
        memory.store(dst + nbytes, "kept", 8)
        memory.copy_range(dst, src, nbytes)
        assert memory.load(dst, 8) == "a"
        assert memory.load(dst + nbytes - 8, 8) == "b"
        assert memory.load(dst + nbytes, 8) == "kept"
        assert memory.load(src + nbytes, 8) == "outside"


class TestCacheSwitch:
    """``cache=False`` runs with no cache simulator at all."""

    @pytest.mark.parametrize("backend, ftype", [
        ("mpfr", "vpfloat<mpfr, 16, 128>"),
        ("unum", "vpfloat<unum, 3, 7>"),
    ])
    def test_cache_false_counts_no_cache_traffic(self, backend, ftype):
        from repro.evaluation.harness import run_kernel

        on = run_kernel("gemm", ftype, 6, backend=backend, cache=True,
                        compile_cache=None)
        off = run_kernel("gemm", ftype, 6, backend=backend, cache=False,
                         compile_cache=None)
        assert off.outputs == on.outputs
        assert sum(on.report.cache_hits) > 0 and on.report.dram_bytes > 0
        assert off.report.cache_hits == (0, 0, 0)
        assert off.report.dram_bytes == 0
        assert off.report.llc_misses == 0
        assert off.report.cycles < on.report.cycles

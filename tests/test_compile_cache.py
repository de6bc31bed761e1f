"""Persistent compile cache: fingerprint invalidation + disk roundtrip."""

import marshal
import pickle
import threading
from importlib.util import MAGIC_NUMBER

import pytest

from repro.codegen import CODEGEN_VERSION
from repro.core import (
    CompileCache,
    CompileOptions,
    CompilerDriver,
    compile_source,
    default_cache_dir,
)
from repro.observability import telemetry_session
from repro.workloads.polybench import source_for

SOURCE = source_for("gemm", "vpfloat<mpfr, 16, 128>")


class TestFingerprint:
    def test_identical_inputs_identical_key(self):
        a = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        b = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        assert a == b

    def test_source_change_invalidates(self):
        base = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        edited = CompileCache.fingerprint(SOURCE + "\n", CompileOptions(),
                                          "m")
        assert base != edited

    def test_vpfloat_attr_change_invalidates(self):
        # The attributes live in the source text, so a precision bump
        # is a source change and must miss.
        other = source_for("gemm", "vpfloat<mpfr, 16, 256>")
        assert CompileCache.fingerprint(SOURCE, CompileOptions(), "m") != \
            CompileCache.fingerprint(other, CompileOptions(), "m")

    def test_backend_and_pass_options_invalidate(self):
        base = CompileCache.fingerprint(SOURCE, CompileOptions(), "m")
        for options in (CompileOptions(backend="boost"),
                        CompileOptions(opt_level=0),
                        CompileOptions(polly=True),
                        CompileOptions(polly=True, polly_tile=8),
                        CompileOptions(reuse_objects=False),
                        CompileOptions(specialize_scalars=False),
                        CompileOptions(in_place_stores=False)):
            assert CompileCache.fingerprint(SOURCE, options, "m") != base

    def test_module_name_invalidates(self):
        assert CompileCache.fingerprint(SOURCE, CompileOptions(), "a") != \
            CompileCache.fingerprint(SOURCE, CompileOptions(), "b")

    def test_key_follows_the_passes_that_run(self, tmp_path):
        # -O0/-O1 compile identical IR, as do -O2/-O3: one entry each.
        cache = CompileCache(tmp_path / "c")
        for level in range(4):
            CompilerDriver(opt_level=level, cache=cache).compile(SOURCE)
        assert len(list((tmp_path / "c").glob("*.vpc"))) == 2

    def test_disable_passes_order_and_duplicates_share_a_key(self):
        def key(*names):
            return CompileCache.fingerprint(
                SOURCE, CompileOptions(disable_passes=names), "m")

        assert key("gvn", "licm") == key("licm", "gvn", "licm")
        assert key("gvn", "licm") != key("gvn") != key()


class TestCompileOptions:
    @pytest.mark.parametrize("option", ["enable_inlining", "verify"])
    def test_removed_options_rejected(self, option):
        with pytest.raises(TypeError, match=option):
            CompilerDriver(**{option: False})

    @pytest.mark.parametrize("surface", [
        "cli", "options", "compile_source", "cache"])
    def test_contraction_and_disk_budget_refused(self, tmp_path, capsys,
                                                 surface):
        # There is no FP contraction and no disk budget: asking for
        # either must fail, never compile as if it were honoured.
        from repro import cli

        if surface == "cli":
            source = tmp_path / "f.c"
            source.write_text("int f() { return 1; }")
            with pytest.raises(SystemExit) as exited:
                cli.main([str(source), "--contract-fma"])
            assert exited.value.code == 2
            assert "--contract-fma" in capsys.readouterr().err
            return
        make, option = {
            "options": (lambda: CompileOptions(contract_fma=True),
                        "contract_fma"),
            "compile_source": (
                lambda: compile_source(SOURCE, contract_fma=True),
                "contract_fma"),
            "cache": (lambda: CompileCache(tmp_path / "c",
                                           max_disk_bytes=1 << 20),
                      "max_disk_bytes"),
        }[surface]
        with pytest.raises(TypeError, match=option):
            make()

    def test_unknown_pass_name_lists_the_valid_ones(self):
        with pytest.raises(ValueError, match="loop-unroll"):
            CompilerDriver(disable_passes=("unroll",))

    def test_disabled_pass_leaves_the_pipeline(self):
        program = CompilerDriver(disable_passes=("gvn", "dce")) \
            .compile(SOURCE)
        assert "gvn" not in program.pass_timings
        assert "dce" not in program.pass_timings
        assert "licm" in program.pass_timings


class TestCacheTiers:
    def test_memory_hit_returns_same_object(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        program = compile_source(SOURCE, backend="mpfr")
        cache.put("k", program)
        assert cache.get("k") is program
        assert cache.stats.memory_hits == 1

    def test_disk_roundtrip_bit_identical(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        program = compile_source(SOURCE, backend="mpfr")
        baseline = program.run("run", [4])
        cache.put("k", program)
        cache._memory.clear()  # force the disk tier
        restored = cache.get("k")
        assert restored is not program
        assert cache.stats.disk_hits == 1
        rerun = restored.run("run", [4])
        assert rerun.value == baseline.value
        assert rerun.report.cycles == baseline.report.cycles
        assert dict(rerun.report.by_category) == \
            dict(baseline.report.by_category)

    def test_lru_eviction(self):
        cache = CompileCache(memory_slots=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_corrupted_entry_is_miss_and_unlinked(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        cache.put("k", compile_source("int f() { return 1; }",
                                      backend="none"))
        path = cache._path("k")
        path.write_bytes(b"not a pickle")
        cache._memory.clear()
        assert cache.get("k") is None
        assert cache.stats.errors == 1
        assert not path.exists()

    def test_stale_format_version_is_miss(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        path = cache._path("k")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps((-1, "whatever")))
        assert cache.get("k") is None
        assert cache.stats.errors == 1

    def test_directory_created_lazily(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        cache = CompileCache(target)
        assert not target.exists()
        assert cache.get("missing") is None
        assert not target.exists()  # lookups never create it
        cache.put("k", 42)
        assert target.is_dir()
        assert list(target.glob("*.vpc"))

    def test_memory_only_cache(self):
        cache = CompileCache(None)
        cache.put("k", 7)
        assert cache.get("k") == 7
        cache._memory.clear()
        assert cache.get("k") is None  # nothing persisted

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        cache.put("k", 1)
        cache.clear()
        assert cache.get("k") is None
        assert not list((tmp_path / "c").glob("*.vpc"))

    def test_unpicklable_program_counts_error_and_stays_in_memory(
            self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        cache.put("k", threading.Lock())  # pickle cannot write a lock
        assert cache.stats.errors == 1
        assert cache.get("k") is not None  # the memory tier serves it
        assert not list((tmp_path / "c").glob("*"))  # no temp left over


class TestDriverIntegration:
    def test_program_too_deep_to_pickle_compiles_and_runs(self, tmp_path):
        """adi on boost lowers to IR nested deeper than pickle's
        recursion limit: the disk write fails, the compile does not."""
        source = source_for("adi", "vpfloat<mpfr, 16, 128>")
        driver = CompilerDriver(backend="boost", cache=tmp_path / "c")
        program = driver.compile(source, name="adi-boost")
        assert driver.cache.stats.errors == 1
        assert driver.compile(source, name="adi-boost") is program
        fresh = CompilerDriver(backend="boost").compile(source,
                                                        name="adi-boost")
        assert program.run("run", [4]).report.cycles == \
            fresh.run("run", [4]).report.cycles

    def test_driver_hits_share_programs(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        driver = CompilerDriver(backend="mpfr", cache=cache)
        first = driver.compile(SOURCE)
        second = driver.compile(SOURCE)
        assert second is first  # memory tier
        assert cache.stats.stores == 1
        assert cache.stats.memory_hits == 1

    def test_driver_accepts_path_like_cache(self, tmp_path):
        driver = CompilerDriver(backend="mpfr", cache=tmp_path / "c")
        assert isinstance(driver.cache, CompileCache)
        program = driver.compile(SOURCE)
        fresh = CompilerDriver(backend="mpfr",
                               cache=tmp_path / "c").compile(SOURCE)
        assert fresh is not program  # different process-level object...
        assert fresh.run("run", [4]).report.cycles == \
            program.run("run", [4]).report.cycles  # ...same program

    def test_cache_none_always_compiles(self):
        driver = CompilerDriver(backend="mpfr", cache=None)
        assert driver.compile(SOURCE) is not driver.compile(SOURCE)

    def test_cross_driver_disk_sharing(self, tmp_path):
        CompilerDriver(backend="mpfr",
                       cache=tmp_path / "c").compile(SOURCE)
        cache = CompileCache(tmp_path / "c")
        CompilerDriver(backend="mpfr", cache=cache).compile(SOURCE)
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 0

    def test_batch_records_share_the_program_entry(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        program = CompilerDriver(backend="mpfr", cache=cache).compile(
            SOURCE, name="m")
        program.run("run", [4])
        program.run_batch("run", [4], lanes=2)
        entries = sorted((tmp_path / "c").iterdir())
        assert [path.suffix for path in entries] == [".vpc", ".vpcgen"]
        assert entries[0].stem == entries[1].stem  # no orphan sidecar

    def test_option_change_misses(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        CompilerDriver(backend="mpfr", cache=cache).compile(SOURCE)
        CompilerDriver(backend="mpfr", polly=True,
                       cache=cache).compile(SOURCE)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0


class TestDefaultDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("VPFLOAT_CACHE_DIR", "/somewhere/else")
        assert default_cache_dir() == "/somewhere/else"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("VPFLOAT_CACHE_DIR", raising=False)
        assert default_cache_dir().endswith("vpfloat-repro")


def _stale_magic() -> bytes:
    """A bytecode magic number one release older than the running one."""
    number = int.from_bytes(MAGIC_NUMBER[:2], "little") - 1
    return number.to_bytes(2, "little") + MAGIC_NUMBER[2:]


def _sidecar(payload) -> bytes:
    return MAGIC_NUMBER + marshal.dumps(payload)


class TestCodegenSidecarCorruption:
    """Corrupt ``.vpcgen`` sidecars must be cache misses that unlink the
    bad file (the pickle tier's corrupt-entry policy) and recompile to
    the same result, never an unmarshal/KeyError/TypeError propagated
    into a run."""

    SIDECAR_SOURCE = """
double f(int n) {
  vpfloat<mpfr, 16, 64> acc = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc + 1.5;
  }
  return acc;
}
"""

    def _run(self, tmp_path):
        cache = CompileCache(tmp_path / "c")
        driver = CompilerDriver(backend="mpfr", cache=cache)
        with telemetry_session(trace=True) as (tracer, _):
            result = driver.compile(self.SIDECAR_SOURCE,
                                    name="sidecar").run("f", [5])
        cached = [e["args"]["cached"] for e in tracer.events
                  if e.get("name") == "codegen:f"]
        return (result.value, result.report.cycles), cached, cache

    def _first_run(self, tmp_path):
        first, cached, _ = self._run(tmp_path)
        assert cached == [False]
        sidecars = list((tmp_path / "c").glob("*.vpcgen"))
        assert len(sidecars) == 1
        path = sidecars[0]
        data = path.read_bytes()
        assert data.startswith(MAGIC_NUMBER)
        return first, path, data

    def _assert_miss_recompiles(self, tmp_path, path, first, garbled):
        """``garbled`` in place of the sidecar is a counted miss that
        unlinks the file; a rerun recompiles, returns the same value and
        cycles, and re-persists a valid sidecar."""
        key = path.name[:-len(".vpcgen")]
        path.write_bytes(garbled)
        probe = CompileCache(tmp_path / "c")
        assert probe.get_codegen(key) is None
        assert probe.stats.errors == 1
        assert not path.exists()
        path.write_bytes(garbled)
        again, cached, cache = self._run(tmp_path)
        assert again == first
        assert cached == [False]
        assert cache.stats.errors == 1
        payload = CompileCache(tmp_path / "c").get_codegen(key)
        assert payload["functions"]["f"]["status"] == "jit"

    # Each id spells the payload its case writes (the torn one cut
    # short), so the cases keep the ids they had as JSON garbles.
    @pytest.mark.parametrize("garble", [
        lambda data: b"",                          # truncated to nothing
        lambda data: data[:len(data) // 2],        # torn marshal bytes
        lambda data: _sidecar([1, 2, 3]),          # wrong top-level type
        lambda data: _sidecar({"version": -1,      # stale version
                               "functions": {}}),
        lambda data: _sidecar({"functions": {}}),  # missing version
    ], ids=["", '{"version":', "[1, 2, 3]",
            '{"version": -1, "functions": {}}', '{"functions": {}}'])
    def test_unreadable_sidecar_is_miss_and_unlinked(self, tmp_path,
                                                     garble):
        first, path, data = self._first_run(tmp_path)
        self._assert_miss_recompiles(tmp_path, path, first, garble(data))

    def test_stale_magic_sidecar_recompiles(self, tmp_path):
        # Bytecode marshalled by another interpreter release: the
        # current version and records behind a foreign magic number.
        first, path, data = self._first_run(tmp_path)
        stale = _stale_magic() + data[len(MAGIC_NUMBER):]
        self._assert_miss_recompiles(tmp_path, path, first, stale)

    def test_garbled_record_is_miss_and_unlinked(self, tmp_path):
        # Current magic and version -- but a function record the jit
        # engine would crash on.  Must recompile, not TypeError.
        first, path, _ = self._first_run(tmp_path)
        garbled = _sidecar({"version": CODEGEN_VERSION,
                            "functions": {"f": "garbage-not-a-dict"}})
        self._assert_miss_recompiles(tmp_path, path, first, garbled)

    def test_unknown_status_is_miss(self, tmp_path):
        first, path, _ = self._first_run(tmp_path)
        garbled = _sidecar({"version": CODEGEN_VERSION, "functions": {
            "f": {"status": "wat", "reason": None, "code": None}}})
        self._assert_miss_recompiles(tmp_path, path, first, garbled)

    def test_jit_record_without_code_is_miss(self, tmp_path):
        first, path, data = self._first_run(tmp_path)
        payload = marshal.loads(data[len(MAGIC_NUMBER):])
        payload["functions"]["f"]["code"] = None
        self._assert_miss_recompiles(tmp_path, path, first,
                                     _sidecar(payload))

    def test_record_carrying_line_map_is_miss(self, tmp_path):
        # A current-version sidecar whose jit record still carries the
        # line map older records had: not a shape the engine writes.
        first, path, data = self._first_run(tmp_path)
        payload = marshal.loads(data[len(MAGIC_NUMBER):])
        payload["functions"]["f"]["line_map"] = {1: ("entry", 0, "ret")}
        self._assert_miss_recompiles(tmp_path, path, first,
                                     _sidecar(payload))

"""Persistent compile cache: skip the middle-end for repeated sweeps.

The evaluation drivers compile the same (kernel source, options) pairs
over and over -- across sweep points inside one process, across the
benchmark reruns of a session, and across worker processes of the
parallel engine (:mod:`repro.evaluation.parallel`).  This module caches
:class:`~repro.core.CompiledProgram` objects at two levels:

* an **in-process LRU** (``memory_slots`` entries) in front, so a warm
  process never touches the filesystem for a repeated point;
* an **on-disk store** of pickled programs under ``directory``, shared
  between processes and surviving across runs.

Entries are keyed by a SHA-256 **fingerprint** of everything that can
change the compilation result: the source text (which embeds the
vpfloat attribute spellings), the module name, the -O3 passes that run
and every other :class:`~repro.core.CompileOptions` field (backend,
Polly tiling, the MPFR-lowering ablations), the cache format version,
and the Python major/minor version (pickles are not guaranteed portable
across interpreters).  Any change to any of those yields a distinct
key; identical inputs return a program whose runs are bit-identical to
a fresh compile.

Disk entries are written atomically (temp file + ``os.replace``) so a
crashed or concurrent writer can never leave a torn entry; unreadable
or stale-format entries are treated as misses and deleted best-effort.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import pickle
import sys
import tempfile
import types
from collections import OrderedDict
from dataclasses import dataclass, fields
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from typing import Optional

from ..codegen import CODEGEN_VERSION
from ..observability import current_metrics

#: Bump when the pickle layout of CompiledProgram/Module changes in a
#: way that should invalidate existing caches.  v2: the fingerprint
#: gained the codegen version, and entries grew optional ``.vpcgen``
#: codegen sidecars.  v3: functions record an unsigned C return type.
FORMAT_VERSION = 3

#: Environment override for the default on-disk location.
CACHE_DIR_ENV = "VPFLOAT_CACHE_DIR"

#: Keys of every function record in a ``.vpcgen`` sidecar.
_CODEGEN_FIELDS = {"status", "reason", "code"}


def _codegen_payload_ok(payload) -> bool:
    """Validity of an unmarshalled ``.vpcgen`` sidecar: the current
    ``version`` and ``functions`` mapping names to records the jit
    engine can consume (a ``fallback`` record carries its reason, a
    ``jit`` one a ``<vpjit:...>`` code object).  Anything else -- a
    hand-edited file, a garbled record, a record with fields of another
    format version -- must read as a cache miss."""
    if not isinstance(payload, dict) \
            or payload.get("version") != CODEGEN_VERSION:
        return False
    functions = payload.get("functions")
    if not isinstance(functions, dict):
        return False
    for name, record in functions.items():
        if not (isinstance(name, str) and isinstance(record, dict)
                and set(record) == _CODEGEN_FIELDS):
            return False
        if record["reason"] is not None \
                and not isinstance(record["reason"], str):
            return False
        if record["status"] == "fallback":
            continue
        code = record["code"]
        if not (record["status"] == "jit"
                and isinstance(code, types.CodeType)
                and code.co_filename.startswith("<vpjit:")):
            return False
    return True


def default_cache_dir() -> str:
    """``$VPFLOAT_CACHE_DIR`` or ``~/.cache/vpfloat-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "vpfloat-repro")


@dataclass
class CacheStats:
    """Where lookups were served from (one instance per cache object)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  # unreadable/corrupt disk entries treated as misses

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CompileCache:
    """Two-level (memory LRU -> disk) cache of compiled programs.

    ``directory=None`` gives a memory-only cache.  The directory is
    created lazily on the first store, so constructing a cache never
    touches the filesystem.
    """

    def __init__(self, directory: Optional[str] = None,
                 memory_slots: int = 64):
        if memory_slots < 0:
            raise ValueError(f"memory_slots must be >= 0, "
                             f"got {memory_slots}")
        self.directory = (Path(directory).expanduser()
                          if directory is not None else None)
        self.memory_slots = memory_slots
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, object]" = OrderedDict()

    # ------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------ #

    @staticmethod
    def fingerprint(source: str, options, name: str = "module") -> str:
        """Stable hex digest over everything that affects compilation.

        The codegen format version keeps codegen sidecars from ever
        being replayed in a stale emitted-source format.  Run-time
        choices stay out of the key: the execution engine is picked per
        run (jit code and its kernels bind when a run binds the
        module), so one program keeps one entry and one sidecar
        whichever way it runs.
        """
        h = hashlib.sha256()
        h.update(b"vpfloat-compile-cache\0")
        h.update(f"format={FORMAT_VERSION}\0".encode())
        h.update(f"python={sys.version_info[0]}.{sys.version_info[1]}\0"
                 .encode())
        h.update(f"name={name}\0".encode())
        h.update(f"codegen={CODEGEN_VERSION}\0".encode())
        h.update(f"passes={options.passes()}\0".encode())
        for f in sorted(fields(options), key=lambda f: f.name):
            if f.name not in ("opt_level", "disable_passes"):
                value = getattr(options, f.name)
                h.update(f"opt:{f.name}={value!r}\0".encode())
        h.update(b"source\0")
        h.update(source.encode())
        return h.hexdigest()

    # ------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------ #

    def get(self, key: str):
        """The cached program for ``key``, or None."""
        registry = current_metrics()
        memory = self._memory
        program = memory.get(key)
        if program is not None:
            memory.move_to_end(key)
            self.stats.memory_hits += 1
            if registry is not None:
                registry.inc("compile.cache.memory_hits")
            return program
        program = self._disk_get(key)
        if program is not None:
            self.stats.disk_hits += 1
            self._memory_put(key, program)
            if registry is not None:
                registry.inc("compile.cache.disk_hits")
            return program
        self.stats.misses += 1
        if registry is not None:
            registry.inc("compile.cache.misses")
        return None

    def put(self, key: str, program) -> None:
        self.stats.stores += 1
        registry = current_metrics()
        if registry is not None:
            registry.inc("compile.cache.stores")
        self._memory_put(key, program)
        self._disk_put(key, program)

    def clear(self) -> None:
        """Drop the memory tier and delete this cache's disk entries."""
        self._memory.clear()
        if self.directory is None or not self.directory.is_dir():
            return
        for pattern in ("*.vpc", "*.vpcgen"):
            for entry in self.directory.glob(pattern):
                try:
                    entry.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------ #
    # Codegen sidecars
    # ------------------------------------------------------------ #

    def get_codegen(self, key: str) -> Optional[dict]:
        """The jit engine's codegen sidecar for ``key``, or None.

        The sidecar lives next to the pickled program as
        ``<key>.vpcgen``: ``importlib.util.MAGIC_NUMBER`` followed by a
        marshalled ``{"version", "functions"}`` dict whose jit records
        carry compiled code objects, so a warm run never re-emits or
        recompiles.  Marshal data is interpreter-specific and trusted
        exactly as far as the pickle beside it.  A wrong magic, an
        unmarshal error, a version mismatch or a structurally bad
        record is unlinked and treated as a miss, mirroring the pickle
        tier's stale-format handling -- a bad sidecar must cost a
        recompile, never propagate an error into the run.
        """
        if self.directory is None:
            return None
        path = self.directory / f"{key}.vpcgen"
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            data = b""
        payload = None
        if data.startswith(MAGIC_NUMBER):
            try:
                payload = marshal.loads(data[len(MAGIC_NUMBER):])
            except Exception:
                pass
        if not _codegen_payload_ok(payload):
            self._count_error()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return payload

    def put_codegen(self, key: str, payload: dict) -> None:
        """Atomically persist the codegen sidecar for ``key`` (the
        format :meth:`get_codegen` reads)."""
        if self.directory is None:
            return
        path = self.directory / f"{key}.vpcgen"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=str(path.parent),
                                        suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(MAGIC_NUMBER + marshal.dumps(payload))
                os.replace(temp, path)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
        except OSError:
            self._count_error()

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------ #
    # Tiers
    # ------------------------------------------------------------ #

    def _memory_put(self, key: str, program) -> None:
        if self.memory_slots == 0:
            return
        memory = self._memory
        memory[key] = program
        memory.move_to_end(key)
        while len(memory) > self.memory_slots:
            memory.popitem(last=False)

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.vpc"

    def _disk_get(self, key: str):
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as handle:
                version, program = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write from a pre-atomic era, a different pickle
            # protocol, or plain corruption: treat as a miss.
            self._count_error()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if version != FORMAT_VERSION:
            self._count_error()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return program

    def _disk_put(self, key: str, program) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=str(path.parent),
                                        suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump((FORMAT_VERSION, program), handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp, path)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, RecursionError, TypeError):
            # Read-only/filled disk, or a program too deeply nested (or
            # holding an object) pickle cannot write: persisting is
            # best-effort; the memory tier still serves this process.
            self._count_error()

    def _count_error(self) -> None:
        self.stats.errors += 1
        registry = current_metrics()
        if registry is not None:
            registry.inc("compile.cache.errors")


def as_compile_cache(cache) -> Optional[CompileCache]:
    """Coerce ``cache`` (CompileCache | path-like | None) to a cache."""
    if cache is None or isinstance(cache, CompileCache):
        return cache
    return CompileCache(os.fspath(cache))

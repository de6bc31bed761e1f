"""Byte-addressed memory model for the IR interpreter.

Addresses are plain integers; cells hold Python runtime objects (ints,
floats, :class:`~repro.bigfloat.BigFloat` values, MPFR handles) together
with the byte span they occupy, so address arithmetic (GEP) works exactly
as in C while the cache model sees realistic byte traffic.

Stack allocation follows scope lifetimes (mark/release), heap allocation
tracks malloc/free, and every access notifies an optional observer (the
cache model).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

STACK_BASE = 0x1000_0000
HEAP_BASE = 0x8000_0000
GLOBAL_BASE = 0x0010_0000


class MemoryError_(RuntimeError):
    """Invalid access: bad free, overlapping store, wild pointer."""


class Memory:
    """Object-cell memory with byte addressing."""

    def __init__(self, observer: Optional[Callable[[str, int, int], None]] = None):
        self.cells: Dict[int, Tuple[object, int]] = {}
        self.stack_pointer = STACK_BASE
        self.heap_pointer = HEAP_BASE
        self.global_pointer = GLOBAL_BASE
        self.heap_blocks: Dict[int, int] = {}  # base -> size
        self.observer = observer
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------ #

    def alloc_stack(self, nbytes: int) -> int:
        nbytes = max(1, int(nbytes))
        addr = self.stack_pointer
        self.stack_pointer += _align(nbytes, 8)
        return addr

    def stack_mark(self) -> int:
        return self.stack_pointer

    def stack_release(self, mark: int) -> None:
        """Free everything allocated after ``mark`` (scope exit)."""
        self.clear_range(max(mark, STACK_BASE),
                         min(self.stack_pointer, HEAP_BASE))
        self.stack_pointer = mark

    def alloc_heap(self, nbytes: int) -> int:
        nbytes = max(1, int(nbytes))
        addr = self.heap_pointer
        self.heap_pointer += _align(nbytes, 16)
        self.heap_blocks[addr] = nbytes
        return addr

    def free_heap(self, addr: int) -> None:
        if addr == 0:
            return  # free(NULL) is a no-op
        size = self.heap_blocks.pop(addr, None)
        if size is None:
            raise MemoryError_(f"free of non-heap address {addr:#x}")
        self.clear_range(addr, addr + size)

    def clear_range(self, start: int, end: int) -> None:
        """Drop every cell at an address in ``[start, end)``, in
        O(min(end - start, live cells))."""
        cells = self.cells
        if end - start <= len(cells):
            for addr in range(start, end):
                cells.pop(addr, None)
        else:
            for addr in [a for a in cells if start <= a < end]:
                del cells[addr]

    def copy_range(self, dst: int, src: int, nbytes: int) -> None:
        """Copy the cells in ``[src, src + nbytes)`` to the same offsets
        from ``dst``, in O(min(nbytes, live cells)).  The observer is not
        notified; callers model the traffic."""
        cells = self.cells
        end = src + nbytes
        if nbytes <= len(cells):
            moved = [(a - src + dst, cells[a]) for a in range(src, end)
                     if a in cells]
        else:
            moved = [(a - src + dst, cell) for a, cell in sorted(cells.items())
                     if src <= a < end]
        for addr, cell in moved:
            cells[addr] = cell

    def alloc_global(self, nbytes: int) -> int:
        addr = self.global_pointer
        self.global_pointer += _align(max(1, int(nbytes)), 8)
        return addr

    # ------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------ #

    def store(self, addr: int, value: object, nbytes: int) -> None:
        if addr == 0:
            raise MemoryError_("store through null pointer")
        self.cells[addr] = (value, nbytes)
        self.bytes_written += nbytes
        if self.observer is not None:
            self.observer("w", addr, nbytes)

    def load(self, addr: int, nbytes: int, default: object = None) -> object:
        if addr == 0:
            raise MemoryError_("load through null pointer")
        self.bytes_read += nbytes
        if self.observer is not None:
            self.observer("r", addr, nbytes)
        cell = self.cells.get(addr)
        if cell is None:
            return default  # uninitialized memory reads as the default
        return cell[0]

    def load_bytes(self, addr: int, n: int) -> bytes:
        """Raw byte view for the UNUM machine (cells must hold ints)."""
        cell = self.cells.get(addr)
        if cell is not None and isinstance(cell[0], (bytes, bytearray)):
            return bytes(cell[0][:n])
        if cell is not None and isinstance(cell[0], int):
            return int(cell[0]).to_bytes(n, "little", signed=False)
        return b"\x00" * n

    def store_bytes(self, addr: int, payload: bytes) -> None:
        self.store(addr, bytes(payload), len(payload))


def _align(n: int, a: int) -> int:
    return (n + a - 1) // a * a

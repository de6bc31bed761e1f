"""Architectural model of the UNUM variable-precision coprocessor.

Models the scalar RISC-V coprocessor of Bocco et al. [9] that the paper's
second backend targets (§III-C2):

- a register file of g-layer registers (``gr0..gr31``) holding decoded
  wide values;
- status/control registers: **ess**, **fss** (UNUM memory geometry),
  **WGP** (working g-layer precision used by the ALU) and **MBB** (memory
  byte budget bounding bytes moved per load/store);
- variable-byte-size loads and stores that encode/decode the UNUM memory
  format, with cost proportional to the bytes transferred;
- arithmetic executed by the :class:`~repro.unum.glayer.GLayerUnit`.

The paper's evaluation hit a hardware erratum in the coprocessor memory
subsystem (gesummv/adi always, plus 3mm/ludcmp/nussinov at maximum
precision under Polly).  :attr:`UnumCoprocessor.erratum_enabled` models
that documented bug so Fig. 2's failure cases can be reproduced and, for
our own runs, disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bigfloat import BigFloat
from .format import UnumConfig, decode, encode
from .glayer import GCycleModel, GLayerUnit

NUM_GREGISTERS = 32


class CoprocessorError(RuntimeError):
    """Architectural misuse: bad register, unconfigured geometry, etc."""


class MemorySubsystemErratum(RuntimeError):
    """Models the paper's coprocessor memory bug (Fig. 2 failed runs)."""


@dataclass
class CoprocessorStats:
    """Dynamic instruction/cycle accounting."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    config_writes: int = 0
    by_opcode: Dict[str, int] = field(default_factory=dict)

    def bump(self, opcode: str) -> None:
        self.instructions += 1
        self.by_opcode[opcode] = self.by_opcode.get(opcode, 0) + 1


@dataclass(frozen=True)
class MemoryCycleModel:
    """Load/store cost: fixed issue cost plus bus beats (8 bytes/beat)."""

    base: int = 4
    per_beat: int = 1

    def cost(self, nbytes: int) -> int:
        return self.base + self.per_beat * ((nbytes + 7) // 8)


class UnumCoprocessor:
    """Functional + timing model of the coprocessor's architectural state."""

    def __init__(
        self,
        wgp: int = 128,
        cycle_model: Optional[GCycleModel] = None,
        memory_model: Optional[MemoryCycleModel] = None,
        erratum_enabled: bool = False,
    ):
        self.glayer = GLayerUnit(wgp, cycle_model)
        self.memory_model = memory_model or MemoryCycleModel()
        self.registers: List[Optional[BigFloat]] = [None] * NUM_GREGISTERS
        self.ess: Optional[int] = None
        self.fss: Optional[int] = None
        self.mbb: Optional[int] = None
        #: memory_config() memo, dropped by set_ess/set_fss/set_mbb.
        self._memory_config: Optional[UnumConfig] = None
        self.stats = CoprocessorStats()
        self.erratum_enabled = erratum_enabled
        self._erratum_byte_count = 0

    # ------------------------------------------------------------ #
    # Control registers (paper: two control regs hold ess/fss; WGP and
    # MBB bound computation precision and memory traffic).
    # ------------------------------------------------------------ #

    @property
    def cycles(self) -> int:
        return self.glayer.cycles

    def add_cycles(self, n: int) -> None:
        self.glayer.cycles += n

    def set_ess(self, value: int) -> None:
        UnumConfig(value, self.fss or 1)  # validates range
        self.ess = value
        self._memory_config = None
        self.stats.config_writes += 1
        self.stats.bump("sucfg.ess")
        self.add_cycles(1)

    def set_fss(self, value: int) -> None:
        UnumConfig(self.ess or 1, value)
        self.fss = value
        self._memory_config = None
        self.stats.config_writes += 1
        self.stats.bump("sucfg.fss")
        self.add_cycles(1)

    def set_wgp(self, value: int) -> None:
        self.glayer.set_wgp(value)
        self.stats.config_writes += 1
        self.stats.bump("sucfg.wgp")
        self.add_cycles(1)

    def set_mbb(self, value: int) -> None:
        if not 1 <= value <= 68:
            raise CoprocessorError(f"MBB must be in 1..68 bytes, got {value}")
        self.mbb = value
        self._memory_config = None
        self.stats.config_writes += 1
        self.stats.bump("sucfg.mbb")
        self.add_cycles(1)

    def memory_config(self) -> UnumConfig:
        """The load/store geometry; write ess/fss/MBB through the
        ``set_*`` methods, which drop the memo."""
        config = self._memory_config
        if config is not None:
            return config
        if self.ess is None or self.fss is None:
            raise CoprocessorError("ess/fss not configured before memory access")
        size = self.mbb
        config = UnumConfig(self.ess, self.fss)
        if size is not None and size < config.size_bytes:
            config = UnumConfig(self.ess, self.fss, size)
        self._memory_config = config
        return config

    # ------------------------------------------------------------ #
    # Register file
    # ------------------------------------------------------------ #

    def _check_reg(self, r: int) -> None:
        if not 0 <= r < NUM_GREGISTERS:
            raise CoprocessorError(f"register gr{r} out of range")

    def read(self, r: int) -> BigFloat:
        self._check_reg(r)
        value = self.registers[r]
        if value is None:
            raise CoprocessorError(f"read of uninitialized register gr{r}")
        return value

    def write(self, r: int, value: BigFloat) -> None:
        self._check_reg(r)
        self.registers[r] = value

    # ------------------------------------------------------------ #
    # Memory instructions (encode/decode the UNUM format; byte count
    # bounded by MBB).  The raw byte I/O is delegated to ``memory``, a
    # byte-addressed object exposing load_bytes/store_bytes.
    # ------------------------------------------------------------ #

    def _erratum_tick(self, nbytes: int) -> None:
        if not self.erratum_enabled:
            return
        self._erratum_byte_count += nbytes
        # The documented bug: wide bursts eventually corrupt the memory
        # pipeline; surfaces only for large footprints.
        if nbytes > 64 or self._erratum_byte_count > (1 << 22):
            raise MemorySubsystemErratum(
                "coprocessor memory subsystem erratum triggered "
                "(paper §IV-B: gesummv/adi + 3 kernels at max precision)"
            )

    def load(self, rd: int, memory, address: int) -> None:
        """``ldu rd, (addr)``: decode a UNUM from memory into a register."""
        config = self.memory_config()
        nbytes = config.size_bytes
        self._erratum_tick(nbytes)
        raw = memory.load_bytes(address, nbytes)
        bits = int.from_bytes(raw, "little")
        self.write(rd, decode(bits, config))
        self.stats.loads += 1
        self.stats.bytes_loaded += nbytes
        self.stats.bump("ldu")
        self.add_cycles(self.memory_model.cost(nbytes))

    def store(self, rs: int, memory, address: int) -> None:
        """``stu rs, (addr)``: encode a register into the UNUM format."""
        config = self.memory_config()
        nbytes = config.size_bytes
        self._erratum_tick(nbytes)
        bits = encode(self.read(rs), config)
        memory.store_bytes(address, bits.to_bytes(nbytes, "little"))
        self.stats.stores += 1
        self.stats.bytes_stored += nbytes
        self.stats.bump("stu")
        self.add_cycles(self.memory_model.cost(nbytes))

    # ------------------------------------------------------------ #
    # Arithmetic instructions
    # ------------------------------------------------------------ #

    def _binop(self, opcode: str, kernel, rd: int, ra: int, rb: int) -> None:
        self.write(rd, kernel(self.read(ra), self.read(rb)))
        self.stats.bump(opcode)

    def gadd(self, rd: int, ra: int, rb: int) -> None:
        self._binop("gadd", self.glayer.add, rd, ra, rb)

    def gsub(self, rd: int, ra: int, rb: int) -> None:
        self._binop("gsub", self.glayer.sub, rd, ra, rb)

    def gmul(self, rd: int, ra: int, rb: int) -> None:
        self._binop("gmul", self.glayer.mul, rd, ra, rb)

    def gdiv(self, rd: int, ra: int, rb: int) -> None:
        self._binop("gdiv", self.glayer.div, rd, ra, rb)

    def gsqrt(self, rd: int, ra: int) -> None:
        self.write(rd, self.glayer.sqrt(self.read(ra)))
        self.stats.bump("gsqrt")

    def gfma(self, rd: int, ra: int, rb: int, rc: int) -> None:
        self.write(
            rd, self.glayer.fma(self.read(ra), self.read(rb), self.read(rc))
        )
        self.stats.bump("gfma")

    def gneg(self, rd: int, ra: int) -> None:
        self.write(rd, self.glayer.neg(self.read(ra)))
        self.stats.bump("gneg")

    def gmov(self, rd: int, ra: int) -> None:
        self.write(rd, self.read(ra))
        self.stats.bump("gmov")
        self.add_cycles(self.glayer.cycle_model.mov_cost)

    def gcmp(self, ra: int, rb: int) -> int:
        self.stats.bump("gcmp")
        return self.glayer.cmp(self.read(ra), self.read(rb))

    # Conversions between the scalar core's IEEE doubles and g-layer.
    def gcvt_d2g(self, rd: int, value: float) -> None:
        self.write(rd, BigFloat.from_float(value, self.glayer.wgp))
        self.stats.bump("gcvt.d.g")
        self.add_cycles(self.glayer.cycle_model.cvt_cost)

    def gcvt_g2d(self, ra: int) -> float:
        self.stats.bump("gcvt.g.d")
        self.add_cycles(self.glayer.cycle_model.cvt_cost)
        return self.read(ra).to_float()

    def gcvt_i2g(self, rd: int, value: int) -> None:
        self.write(rd, BigFloat.from_int(value, self.glayer.wgp))
        self.stats.bump("gcvt.w.g")
        self.add_cycles(self.glayer.cycle_model.cvt_cost)

"""Checkable equivalence certificates for pass and engine transitions.

A :class:`Certificate` is the artifact the translation-validation
harness emits for one subject (a compiled program or kernel run): a
*witness* describing the inputs and the reference observation, plus one
:class:`Check` per candidate configuration (another execution engine,
a different optimization level).  Each check
records whether the candidate's values were bit-identical to the
reference and whether its cycle report satisfied the transition's
invariant (see :data:`STRICTNESS`).

Certificates are plain-data (JSON-serializable via :meth:`to_dict`) so
they can cross process boundaries with the parallel evaluation engine
and be archived next to fuzzer reproducers.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

CERTIFICATE_VERSION = 1

#: Cycle-report invariant per transition kind:
#:
#: * ``exact``   -- every report field identical (engine transitions:
#:   the legacy walker and the jit engine model the same machine, so
#:   their reports must agree bit-for-bit).
#: * ``sane``    -- structural sanity only (pass transitions: -O0 and
#:   -O3 share values, not schedules; the report must still be a
#:   plausible execution).
STRICTNESS = ("exact", "sane")

#: CostReport fields compared by the ``exact`` invariant: every field
#: (``by_category`` is compared separately), so a miscounted cache hit
#: or byte cannot pass.
_REPORT_FIELDS = (
    "cycles", "instructions", "mpfr_calls", "mpfr_allocations",
    "heap_allocations", "bytes_read", "bytes_written", "cache_hits",
    "llc_misses", "dram_bytes", "parallel_cycles", "serial_cycles",
    "parallel_dram_bytes", "parallel_heap_allocations",
)

#: The transitions the toolchain certifies, each mapped to the report
#: invariant its checks run under.  Harnesses that build checks for one
#: of these transitions look its strictness up here rather than
#: hard-coding it, so the table doubles as the authoritative inventory
#: of what "seamless" is required to mean:
#:
#: * ``engine↔engine`` -- any pair of execution engines over one
#:   compiled program (jit/legacy).  This is also the scalar-kernel
#:   check: the jit binds the precision-specialized kernels, the
#:   legacy walker the library arithmetic.
#: * ``O3↔O0`` / ``O3↔O3-minus-one-pass`` / ``O3↔O3+polly`` -- passes.
TRANSITIONS = {
    "engine↔engine": "exact",
    "O3↔O0": "sane",
    "O3↔O3-minus-one-pass": "sane",
    "O3↔O3+polly": "sane",
}


class CertificateError(AssertionError):
    """A validation certificate did not hold (strict mode)."""


# ----------------------------------------------------------------- #
# Value tokens: bit-level equality for heterogeneous run results
# ----------------------------------------------------------------- #

def value_token(value) -> Tuple:
    """A hashable token equal iff two run results are bit-identical.

    Handles the result types the runtimes produce: BigFloat (compared
    by kind/sign/significand/exponent/precision, so -0 != +0 and
    NaN == NaN), MpfrVar handles (tokenized by their value), floats
    (by IEEE-754 bit pattern), ints and None.
    """
    if value is None:
        return ("none",)
    # MpfrVar handle: token its BigFloat payload.
    if hasattr(value, "value") and hasattr(value, "prec") \
            and hasattr(value, "alive"):
        return value_token(value.value)
    kind = getattr(value, "kind", None)
    if kind is not None and hasattr(value, "mant"):
        return ("bigfloat", kind.value, value.sign, value.mant,
                value.exp, value.prec)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        if math.isnan(value):
            return ("float", "nan")
        return ("float", struct.pack("<d", value).hex())
    return ("repr", repr(value))


def values_token(values: Sequence) -> Tuple:
    return tuple(value_token(v) for v in values)


def values_digest(values: Sequence) -> str:
    """A short stable digest of a value sequence (for witnesses)."""
    return tokens_digest(values_token(values))


def tokens_digest(tokens: Tuple) -> str:
    """A short stable digest of a token sequence."""
    return hashlib.sha256(repr(tokens).encode()).hexdigest()[:16]


# ----------------------------------------------------------------- #
# Cycle-report invariants
# ----------------------------------------------------------------- #

def report_snapshot(report) -> dict:
    """The comparable face of a CostReport as a plain dict (JSON-safe:
    ``cache_hits`` is a list)."""
    snap = {name: getattr(report, name, 0) for name in _REPORT_FIELDS}
    snap["cache_hits"] = list(getattr(report, "cache_hits", ()))
    snap["by_category"] = dict(getattr(report, "by_category", {}) or {})
    return snap


def compare_reports(reference: dict, candidate: dict,
                    strictness: str) -> Optional[str]:
    """None when ``candidate`` satisfies the invariant against
    ``reference``; otherwise a message naming the first violation."""
    if strictness not in STRICTNESS:
        raise ValueError(f"unknown strictness {strictness!r}; "
                         f"choose from {STRICTNESS}")
    if strictness == "sane":
        if candidate.get("cycles", 0) <= 0:
            return f"cycles must be positive, got {candidate.get('cycles')}"
        if candidate.get("instructions", 0) <= 0:
            return (f"instructions must be positive, "
                    f"got {candidate.get('instructions')}")
        return None
    for name in _REPORT_FIELDS:
        if reference.get(name) != candidate.get(name):
            return (f"report field {name!r} diverged: reference "
                    f"{reference.get(name)!r} vs candidate "
                    f"{candidate.get(name)!r}")
    if reference.get("by_category") != candidate.get("by_category"):
        return "report cycle breakdown (by_category) diverged"
    return None


# ----------------------------------------------------------------- #
# Certificate structure
# ----------------------------------------------------------------- #

@dataclass
class Check:
    """One candidate configuration compared against the reference."""

    label: str                 # e.g. "engine.legacy", "opt.O0"
    strictness: str            # invariant applied to the cycle report
    value_equal: bool
    report_ok: bool
    detail: str = ""           # first divergence, empty when passed

    @property
    def passed(self) -> bool:
        return self.value_equal and self.report_ok

    def to_dict(self) -> dict:
        return {"label": self.label, "strictness": self.strictness,
                "value_equal": self.value_equal,
                "report_ok": self.report_ok, "passed": self.passed,
                "detail": self.detail}


@dataclass
class Certificate:
    """The equivalence certificate for one validated subject."""

    subject: str               # program/kernel name
    kind: str                  # "engine" | "pass" | "fuzz"
    reference: str             # reference configuration label
    witness: dict = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    #: The reference run's tokens; :meth:`to_dict` keeps the digest.
    observation: Tuple = field(default=(), repr=False)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"certificate[{self.kind}] {self.subject}: {verdict} "
                f"({len(self.checks)} check(s) vs {self.reference})")

    def render(self) -> str:
        lines = [self.summary()]
        for check in self.checks:
            mark = "ok" if check.passed else "FAIL"
            line = (f"  {check.label:<24} {mark:<5} "
                    f"[{check.strictness}]")
            if check.detail:
                line += f" {check.detail}"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "version": CERTIFICATE_VERSION,
            "subject": self.subject,
            "kind": self.kind,
            "reference": self.reference,
            "witness": dict(self.witness),
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        if not isinstance(data, dict) or "checks" not in data:
            raise ValueError("not a vpfloat validation certificate")
        cert = cls(subject=data.get("subject", "?"),
                   kind=data.get("kind", "?"),
                   reference=data.get("reference", "?"),
                   witness=dict(data.get("witness", {})))
        for raw in data["checks"]:
            cert.add(Check(label=raw["label"],
                           strictness=raw.get("strictness", "exact"),
                           value_equal=bool(raw.get("value_equal")),
                           report_ok=bool(raw.get("report_ok")),
                           detail=raw.get("detail", "")))
        return cert


def make_check(label: str, strictness: str,
               reference_values: Tuple, candidate_values: Tuple,
               reference_report: dict, candidate_report: dict) -> Check:
    """Compare one candidate observation against the reference."""
    value_equal = reference_values == candidate_values
    detail = ""
    if not value_equal:
        detail = _first_value_divergence(reference_values,
                                         candidate_values)
    report_error = compare_reports(reference_report, candidate_report,
                                   strictness)
    if report_error and not detail:
        detail = report_error
    return Check(label=label, strictness=strictness,
                 value_equal=value_equal,
                 report_ok=report_error is None, detail=detail)


def _first_value_divergence(reference: Tuple, candidate: Tuple) -> str:
    if len(reference) != len(candidate):
        return (f"value count diverged: {len(reference)} vs "
                f"{len(candidate)}")
    for i, (ref, got) in enumerate(zip(reference, candidate)):
        if ref != got:
            return f"value #{i} diverged: {ref!r} vs {got!r}"
    return "values diverged"

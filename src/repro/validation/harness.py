"""Translation-validation harness: one transition registry, one runner.

:data:`REGISTRY` is the inventory of transitions a run can be certified
across.  Each entry names its check label, the delta that turns the
reference run into the candidate, the rule for when it applies, and the
report invariant it runs under (looked up in
:data:`~repro.validation.certificate.TRANSITIONS`).

:func:`certify` is the one runner behind every ``--validate`` path
(``vpfloat-cc``, ``run_kernel``, the Figure 1 RAJAPerf points) and the
fuzzer's compiled stages.  It runs the reference, then every applicable
candidate the caller selected, and assembles a
:class:`~repro.validation.certificate.Certificate`.  Every caller's
runs are compared one way (:func:`observe_run`): by what a run left in
memory, not where it left it, so a kernel returning its output array's
base address is checked on the array.

Validation outcomes are surfaced as ``validate.*`` counters and
``validate:*`` tracer spans through the telemetry registry; pass
``strict=True`` (the default) to raise
:class:`~repro.validation.certificate.CertificateError` on a failed
certificate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from typing import Callable, Mapping, Optional, Sequence, Tuple

from ..core import ENGINES, CompileOptions, CompilerDriver, resolve_engine
from ..observability import CAT_VALIDATE, current_metrics, observe
from ..passes.pass_manager import droppable_passes
from ..runtime.memory import GLOBAL_BASE
from .certificate import (
    TRANSITIONS,
    Certificate,
    CertificateError,
    make_check,
    report_snapshot,
    tokens_digest,
    value_token,
)

#: Delta keys that change the compiled program rather than the run.
_COMPILE_KEYS = frozenset(f.name for f in fields(CompileOptions))


@dataclass(frozen=True)
class Transition:
    """One certifiable transition away from the reference run."""

    label: str          # check label
    edge: str           # its row in certificate.TRANSITIONS
    delta: Mapping      # run/compile keywords that make the candidate
    #: (reference compile options, engine) -> whether the check applies.
    applies: Callable[[Mapping, str], bool]

    @property
    def strictness(self) -> str:
        return TRANSITIONS[self.edge]


#: Every transition, in the order a certificate lists its checks.
REGISTRY: Tuple[Transition, ...] = (
    *(Transition(f"engine.{name}", "engine↔engine", {"engine": name},
                 lambda options, engine, name=name: engine != name)
      for name in ENGINES),
    Transition("opt.O0", "O3↔O0", {"opt_level": 0},
               lambda options, engine: True),
    *(Transition(f"pass.no-{name}", "O3↔O3-minus-one-pass",
                 {"disable_passes": (name,)},
                 lambda options, engine: not options.get("disable_passes"))
      for name in droppable_passes()),
    Transition("pass.polly", "O3↔O3+polly", {"polly": True},
               lambda options, engine: not options.get("polly")),
)


def observe_run(value, memory) -> Tuple:
    """A finished run as value tokens: its return ``value``, then every
    live global and heap cell of ``memory`` in address order (the stack
    is empty after the top-level call).  An integer inside a live heap
    block observes as ``("address",)``, so runs whose blocks land
    elsewhere (a dropped pass moves temporaries) observe equal."""
    blocks = sorted(memory.heap_blocks.items())
    bases = [base for base, _size in blocks]

    def in_heap(addr) -> bool:
        i = bisect_right(bases, addr) - 1
        return i >= 0 and addr < bases[i] + blocks[i][1]

    def token(item) -> Tuple:
        if isinstance(item, int) and not isinstance(item, bool) \
                and in_heap(item):
            return ("address",)
        return value_token(item)

    cells = memory.cells
    return (token(value), *(
        token(cells[addr][0]) for addr in sorted(cells)
        if GLOBAL_BASE <= addr < memory.global_pointer or in_heap(addr)))


def record_certificate(certificate: Certificate) -> None:
    """Fold a certificate's outcome into the telemetry registry."""
    registry = current_metrics()
    if registry is None:
        return
    registry.inc("validate.certificates")
    registry.inc("validate.passed" if certificate.passed
                 else "validate.failed")
    registry.inc(f"validate.kind.{certificate.kind}."
                 f"{'passed' if certificate.passed else 'failed'}")
    for check in certificate.checks:
        registry.inc("validate.checks")
        registry.inc(f"validate.check.{check.label}."
                     f"{'passed' if check.passed else 'failed'}")


def finish_certificate(certificate: Certificate,
                       strict: bool) -> Certificate:
    """Record telemetry and (in strict mode) raise on failure."""
    record_certificate(certificate)
    if strict and not certificate.passed:
        raise CertificateError(certificate.render())
    return certificate


def certify(subject: str, func: str, args: Sequence = (), *,
            kind: str = "engine", program=None,
            source: Optional[str] = None, options: Optional[dict] = None,
            engine: Optional[str] = None,
            only: Sequence[str] = ("engine",),
            run_options: Optional[dict] = None,
            witness: Optional[dict] = None,
            strict: bool = True) -> Certificate:
    """Certify ``func(*args)`` across the selected transitions.

    ``kind`` names the certificate ("engine", "pass", "fuzz") and so
    its reference label.  The reference is one serial run on
    ``engine`` (default: the jit), of ``program`` or, when it is None,
    of ``source`` compiled with ``options``
    (:class:`~repro.core.CompilerDriver` keywords).  Candidates are the
    :data:`REGISTRY` entries whose label starts with one of ``only``
    and whose rule holds; compile deltas (``opt.O0``, ``pass.*``)
    recompile ``source``.  Each run is compared by its
    :func:`observe_run` observation, which the certificate keeps as
    ``observation``; ``run_options`` are extra
    :meth:`~repro.core.CompiledProgram.run` keywords.
    """
    options = dict(options or {})
    reference = (asdict(program.options) if program is not None
                 else {"backend": "mpfr", **options})
    backend = reference["backend"]
    if backend == "unum":
        raise ValueError("certificates apply to the interpreter backends "
                         "(none/mpfr/boost), not unum")
    reference_engine = resolve_engine(engine)
    candidates = [t for t in REGISTRY if t.label.startswith(tuple(only))
                  and t.applies(reference, reference_engine)]
    programs = {} if program is None else {(): program}

    def run(delta: Mapping) -> Tuple[Tuple, object]:
        key = tuple(sorted((k, v) for k, v in delta.items()
                           if k in _COMPILE_KEYS))
        if key not in programs:
            driver = CompilerDriver(**{**options, **dict(key)})
            programs[key] = driver.compile(source, name=subject)
        kwargs = dict(run_options or {})
        kwargs.update((k, v) for k, v in delta.items()
                      if k not in _COMPILE_KEYS)
        kwargs.setdefault("engine", reference_engine)
        result = programs[key].run(func, list(args), **kwargs)
        return (observe_run(result.value, result.interpreter.memory),
                result.report)

    if kind == "pass":
        reference_label = f"opt.O{options.get('opt_level', 3)}"
    else:
        reference_label = f"engine.{reference_engine}"
    with observe(f"validate:{subject}", cat=CAT_VALIDATE, kind=kind,
                 reference=reference_label):
        observation, report = run({})
        ref_report = report_snapshot(report)
        certificate = Certificate(
            subject=subject, kind=kind, reference=reference_label,
            witness={"func": func, "args": list(args), "backend": backend,
                     **(witness or {}),
                     "value_digest": tokens_digest(observation),
                     "cycles": ref_report["cycles"]},
            observation=observation)
        for transition in candidates:
            values, report = run(transition.delta)
            certificate.add(make_check(
                transition.label, transition.strictness, observation,
                values, ref_report, report_snapshot(report)))
    return finish_certificate(certificate, strict)

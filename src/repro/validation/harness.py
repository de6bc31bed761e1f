"""Translation-validation harness: engine and pass transitions.

The entry points compile and execute one program under a *reference*
configuration and a set of *candidate* configurations, then assemble a
:class:`~repro.validation.certificate.Certificate`:

* :func:`validate_engines` -- the engine transitions (legacy <-> the
  closure tables <-> the specializing jit) plus the MPFR
  pool toggle, under the ``exact`` / ``traffic`` report invariants.
* :func:`validate_passes` -- the pass transitions (-O0 vs -O3 and each
  -O3 pipeline switch), value-equivalence with ``sane`` report checks.
* :func:`certificate_for_outcomes` -- assemble a certificate from run
  observations the caller already holds (the evaluation harness path,
  where kernels read their output arrays out of simulated memory).

Validation outcomes are surfaced as ``validate.*`` counters and
``validate:*`` tracer spans through the telemetry registry; pass
``strict=True`` (the default for the CLI paths) to raise
:class:`~repro.validation.certificate.CertificateError` on a failed
certificate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core import ENGINES, CompilerDriver, resolve_engine
from ..observability import CAT_VALIDATE, current_metrics, observe
from .certificate import (
    TRANSITIONS,
    Certificate,
    CertificateError,
    make_check,
    report_snapshot,
    values_digest,
    values_token,
)

#: -O3 pipeline switches whose transition must preserve value semantics
#: (``contract_fma`` is excluded: fusing a*b+c into a single rounding is
#: an intentional semantic change, the reason it is off by default).
_PASS_SWITCHES = ("enable_loop_idiom", "enable_inlining", "enable_unroll")


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


# ----------------------------------------------------------------- #
# Source-level validators (compile + run per configuration)
# ----------------------------------------------------------------- #

def _observe(source: str, name: str, func: str, args,
             backend: str, engine: Optional[str], pool: Optional[bool],
             opt_level: int = 3, cache=None,
             max_steps: int = 500_000_000,
             **driver_kwargs) -> Tuple[Tuple, dict]:
    """Compile and run one configuration; -> (value tokens, report)."""
    driver = CompilerDriver(backend=backend, opt_level=opt_level,
                            cache=cache, engine=engine, **driver_kwargs)
    program = driver.compile(source, name=name)
    result = program.run(func, list(args), engine=engine, pool=pool,
                         max_steps=max_steps)
    return values_token([result.value]), report_snapshot(result.report)


def validate_engines(source: str, func: str, args: Sequence = (),
                     backend: str = "mpfr",
                     engine: Optional[str] = None,
                     engines: Optional[Sequence[str]] = None,
                     name: str = "program", cache=None,
                     max_steps: int = 500_000_000, strict: bool = True,
                     **driver_kwargs) -> Certificate:
    """Certificate for the engine transitions of one program.

    The reference is ``engine`` (default: the backend's default
    engine); every other entry of ``engines`` (default: all of
    :data:`~repro.core.ENGINES`) is checked under the ``exact`` report
    invariant, and the MPFR pool toggle under ``traffic``.
    """
    if backend == "unum":
        raise ValueError("engine validation applies to the interpreter "
                         "backends (none/mpfr/boost), not unum")
    reference_engine = resolve_engine(engine, backend)
    candidates = [e for e in (engines or ENGINES)
                  if e != reference_engine]
    with observe(f"validate:{name}", cat=CAT_VALIDATE,
                 kind="engine", reference=reference_engine):
        ref_values, ref_report = _observe(
            source, name, func, args, backend, reference_engine, None,
            cache=cache, max_steps=max_steps, **driver_kwargs)
        certificate = Certificate(
            subject=name, kind="engine",
            reference=f"engine.{reference_engine}",
            witness={"func": func, "args": list(args),
                     "backend": backend,
                     "value_digest": values_digest_from(ref_values),
                     "cycles": ref_report["cycles"]})
        for candidate in candidates:
            values, report = _observe(
                source, name, func, args, backend, candidate, None,
                cache=cache, max_steps=max_steps, **driver_kwargs)
            certificate.add(make_check(
                f"engine.{candidate}", "exact", ref_values, values,
                ref_report, report))
        if backend != "boost":
            # The pool is on by default for mpfr/none; check it off.
            values, report = _observe(
                source, name, func, args, backend, reference_engine,
                False, cache=cache, max_steps=max_steps,
                **driver_kwargs)
            certificate.add(make_check(
                "pool.off", "traffic", ref_values, values,
                ref_report, report))
    return finish_certificate(certificate, strict)


def validate_tiers(source: str, func: str, args: Sequence = (),
                   backend: str = "mpfr",
                   engine: Optional[str] = None,
                   name: str = "program", cache=None,
                   max_steps: int = 500_000_000, strict: bool = True,
                   lanes: Optional[int] = None,
                   **driver_kwargs) -> Certificate:
    """Certificate for the ``generic↔specialized`` kernel transition.

    The reference compiles and runs with ``kernel_tier="small"`` (the
    precision-specialized fast-path kernels wherever legal); the
    candidate forces ``kernel_tier="generic"``.  Both run on the jit
    engine (the only engine that binds tiered kernels); the check runs
    under the ``exact`` invariant -- the tier is a strength reduction,
    not a semantic change.  ``lanes`` adds a batched-execution check of
    the same transition (mpfr backend only).
    """
    if backend == "unum":
        raise ValueError("kernel-tier validation applies to the "
                         "interpreter backends (none/mpfr/boost), "
                         "not unum")
    strictness = TRANSITIONS["generic↔specialized"]
    reference_engine = resolve_engine(engine, backend)
    with observe(f"validate:{name}", cat=CAT_VALIDATE, kind="kernel-tier"):
        ref_values, ref_report = _observe(
            source, name, func, args, backend, reference_engine, None,
            cache=cache, max_steps=max_steps, kernel_tier="small",
            **driver_kwargs)
        certificate = Certificate(
            subject=name, kind="kernel-tier", reference="tier.small",
            witness={"func": func, "args": list(args),
                     "backend": backend,
                     "value_digest": values_digest_from(ref_values),
                     "cycles": ref_report["cycles"]})
        values, report = _observe(
            source, name, func, args, backend, reference_engine, None,
            cache=cache, max_steps=max_steps, kernel_tier="generic",
            **driver_kwargs)
        certificate.add(make_check(
            "tier.generic", strictness, ref_values, values,
            ref_report, report))
        if lanes is not None and backend == "mpfr":
            for tier in ("small", "generic"):
                driver = CompilerDriver(
                    backend=backend, cache=cache, engine="jit",
                    kernel_tier=tier, **driver_kwargs)
                program = driver.compile(source, name=name)
                batch = program.run_batch(func, list(args), lanes=lanes,
                                          max_steps=max_steps)
                tokens = values_token(batch.values)
                snapshot = report_snapshot(batch.reports[0])
                if tier == "small":
                    batch_ref_values, batch_ref_report = tokens, snapshot
                else:
                    certificate.add(make_check(
                        f"tier.generic.batch{lanes}", strictness,
                        batch_ref_values, tokens,
                        batch_ref_report, snapshot))
    return finish_certificate(certificate, strict)


def validate_passes(source: str, func: str, args: Sequence = (),
                    backend: str = "mpfr",
                    engine: Optional[str] = None,
                    name: str = "program", cache=None,
                    max_steps: int = 500_000_000, strict: bool = True,
                    **driver_kwargs) -> Certificate:
    """Certificate for the pass transitions of one program.

    Compares the full -O3 pipeline against -O0 (raw codegen) and
    against -O3 with each pipeline switch disabled; values must be
    bit-identical, reports need only be sane (optimization is allowed
    to change the schedule -- that is its job).
    """
    if backend == "unum":
        raise ValueError("pass validation applies to the interpreter "
                         "backends (none/mpfr/boost), not unum")
    reference_engine = resolve_engine(engine, backend)
    with observe(f"validate:{name}", cat=CAT_VALIDATE, kind="pass"):
        ref_values, ref_report = _observe(
            source, name, func, args, backend, reference_engine, None,
            opt_level=3, cache=cache, max_steps=max_steps,
            **driver_kwargs)
        certificate = Certificate(
            subject=name, kind="pass", reference="opt.O3",
            witness={"func": func, "args": list(args),
                     "backend": backend,
                     "value_digest": values_digest_from(ref_values)})
        values, report = _observe(
            source, name, func, args, backend, reference_engine, None,
            opt_level=0, cache=cache, max_steps=max_steps,
            **driver_kwargs)
        certificate.add(make_check("opt.O0", "sane", ref_values,
                                   values, ref_report, report))
        for switch in _PASS_SWITCHES:
            kwargs = dict(driver_kwargs)
            kwargs[switch] = False
            values, report = _observe(
                source, name, func, args, backend, reference_engine,
                None, opt_level=3, cache=cache, max_steps=max_steps,
                **kwargs)
            certificate.add(make_check(
                f"pass.no-{switch[len('enable_'):]}", "sane",
                ref_values, values, ref_report, report))
    return finish_certificate(certificate, strict)


def values_digest_from(tokens: Tuple) -> str:
    import hashlib

    return hashlib.sha256(repr(tokens).encode()).hexdigest()[:16]


# ----------------------------------------------------------------- #
# Outcome-level certificates (evaluation-harness path)
# ----------------------------------------------------------------- #

def certificate_for_outcomes(subject: str, reference_label: str,
                             reference: Tuple[Sequence, object],
                             candidates: List[Tuple[str, str,
                                                    Sequence, object]],
                             witness: Optional[dict] = None,
                             strict: bool = True) -> Certificate:
    """Assemble a certificate from observations the caller produced.

    ``reference`` is ``(values, report)`` for the reference
    configuration; each candidate is ``(label, strictness, values,
    report)``.  Values may be any sequence the token layer understands
    (run results, output arrays); reports are CostReport objects or
    snapshots."""
    ref_values = values_token(reference[0])
    ref_report = _as_snapshot(reference[1])
    certificate = Certificate(
        subject=subject, kind="engine", reference=reference_label,
        witness=dict(witness or {}))
    certificate.witness.setdefault("value_digest",
                                   values_digest(reference[0]))
    with observe(f"validate:{subject}", cat=CAT_VALIDATE,
                 kind="engine", reference=reference_label):
        for label, strictness, values, report in candidates:
            certificate.add(make_check(
                label, strictness, ref_values, values_token(values),
                ref_report, _as_snapshot(report)))
    return finish_certificate(certificate, strict)


def _as_snapshot(report) -> dict:
    if isinstance(report, dict):
        return report
    return report_snapshot(report)

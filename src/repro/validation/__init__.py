"""Translation validation: certificates, fuzzing, minimization.

The paper's pitch is that variable-precision arithmetic drops into the
normal compiler flow "seamlessly" -- which is only credible if every
transition the toolchain offers (execution engines, optimization
levels and individual -O3 passes) is *checkably*
semantics-preserving.  This package makes that checkable:

* :mod:`~repro.validation.certificate` -- equivalence certificates:
  bit-level value witnesses plus cycle-report invariants per transition.
* :mod:`~repro.validation.harness` -- the transition registry and the
  one :func:`certify` runner behind every ``--validate`` flag and the
  fuzzer's compiled stages, with ``validate.*`` telemetry.
* :mod:`~repro.validation.fuzzer` -- random-program differential
  testing across engines, optimization levels, backends, precisions and
  all five rounding modes.
* :mod:`~repro.validation.minimize` -- deterministic delta-debugging of
  failing programs to minimal reproducers.
* :mod:`~repro.validation.corpus` -- reproducer persistence + replay.

``python -m repro.validation fuzz`` runs a fuzzing session;
``python -m repro.validation replay FILE`` re-checks a reproducer.
"""

from .certificate import (
    CERTIFICATE_VERSION,
    STRICTNESS,
    TRANSITIONS,
    Certificate,
    CertificateError,
    Check,
    compare_reports,
    make_check,
    report_snapshot,
    value_token,
    values_digest,
    values_token,
)
from .corpus import (
    DEFAULT_CORPUS_DIR,
    corpus_dir,
    load_reproducer,
    replay,
    save_reproducer,
)
from .fuzzer import (
    ALL_ROUNDING_MODES,
    ENGINE_CONFIGS,
    FuzzOp,
    FuzzProgram,
    Mismatch,
    cross_check,
    cross_check_engines,
    cross_check_rounding,
    eval_mpfr_api,
    eval_reference,
    fuzz_programs,
    generate_program,
)
from .harness import (
    REGISTRY,
    Transition,
    certify,
    finish_certificate,
    record_certificate,
)
from .minimize import minimize

__all__ = [
    "ALL_ROUNDING_MODES",
    "CERTIFICATE_VERSION",
    "Certificate",
    "CertificateError",
    "Check",
    "DEFAULT_CORPUS_DIR",
    "ENGINE_CONFIGS",
    "FuzzOp",
    "FuzzProgram",
    "Mismatch",
    "REGISTRY",
    "STRICTNESS",
    "TRANSITIONS",
    "Transition",
    "certify",
    "compare_reports",
    "corpus_dir",
    "cross_check",
    "cross_check_engines",
    "cross_check_rounding",
    "eval_mpfr_api",
    "eval_reference",
    "finish_certificate",
    "fuzz_programs",
    "generate_program",
    "load_reproducer",
    "make_check",
    "minimize",
    "record_certificate",
    "replay",
    "report_snapshot",
    "save_reproducer",
    "value_token",
    "values_digest",
    "values_token",
]

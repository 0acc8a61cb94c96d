"""AST-based simulator-invariant linter (``repro-lint``).

The simulator's correctness rests on invariants the paper states but CPython
cannot enforce cheaply at runtime:

* results are **deterministic** — a parallel campaign must be bit-identical
  to a serial one (see :mod:`repro.parallel`), which a single stray
  ``random.random()``, wall-clock read, ``id()``-derived key or
  set-iteration silently breaks;
* **cycle counts are integers** — true division feeding a cycle or epoch
  counter truncates differently from ``//`` and quietly turns closed-form
  accounting identities into float drift;
* **accounting is conservative** — ``hits + misses == accesses`` at every
  counter the slowdown models read (Table 1 of the paper), mirrored at
  runtime by :mod:`repro.resilience.invariants`;
* **parallel payloads pickle by reference** — lambdas and nested defs
  submitted to a worker pool fail at runtime, on some platforms only.

``repro.lintkit`` proves the cheap half of these statically: a small
AST-visitor framework (:mod:`repro.lintkit.base`) hosts simulator-specific
rules (:mod:`repro.lintkit.rules`), with per-line ``# lint: ignore[RULE]``
suppressions as the one way to excuse a finding, and human / JSON / SARIF
output. Run it with ``python -m repro.lintkit src/`` or the ``repro-lint``
console script.
"""

from repro.lintkit.base import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_text,
    register,
)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_text",
    "register",
]

"""Static analysis of SAN models before compilation and simulation.

``repro.analysis`` checks a model the way the engines will *use* it:

* :mod:`~repro.analysis.footprint` — gate predicates / rates / case
  probabilities must be pure functions of their declared place bindings
  (the compiled engine's incremental propensity maintenance depends on
  it);
* :mod:`~repro.analysis.determinism` — gate code must not reach
  nondeterministic modules, hash-ordered iteration, or captured mutable
  state (bit-identical replay across engines and worker counts);
* :mod:`~repro.analysis.structural` — P-invariants, disconnected
  places, never-enabled activities, instantaneous-activity cycles;
* :mod:`~repro.analysis.vectorize` — which activities the stepped
  engine lowers to column kernels and why the rest fall back;
* :mod:`~repro.analysis.lowering` — the static lowering verifier:
  extracts the typed kernel IR of the stepped compile and
  verifies it by abstract interpretation over the reachable envelope
  (value ranges, NaN-sentinel collisions, table-span bounds, case
  normalization, AST/lowered footprint parity), plus the
  tensor-eligibility predictor for cross-point sweeps.

Run everything with :func:`analyze_model`, or from the command line with
``repro-cli lint``.  Rule catalog and JSON schema:
``docs/static_analysis.md``.
"""

from repro.analysis.determinism import check_determinism
from repro.analysis.diagnostics import (
    RULES,
    AnalysisReport,
    Diagnostic,
    Rule,
    Severity,
)
from repro.analysis.footprint import check_footprints
from repro.analysis.lowering import (
    TENSOR_FALLBACK_RULE,
    KernelIR,
    check_lowering,
    check_tensor,
    extract_kernel_ir,
)
from repro.analysis.probe import CodeFacts, code_facts, explore, fire_deltas
from repro.analysis.runner import FAMILIES, analyze_model
from repro.analysis.structural import check_structure
from repro.analysis.vectorize import check_vectorization, lowering_summary

__all__ = [
    "AnalysisReport",
    "CodeFacts",
    "Diagnostic",
    "FAMILIES",
    "KernelIR",
    "RULES",
    "Rule",
    "Severity",
    "TENSOR_FALLBACK_RULE",
    "analyze_model",
    "check_determinism",
    "check_footprints",
    "check_lowering",
    "check_structure",
    "check_tensor",
    "check_vectorization",
    "code_facts",
    "explore",
    "extract_kernel_ir",
    "fire_deltas",
    "lowering_summary",
]

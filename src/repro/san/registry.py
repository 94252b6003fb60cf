"""Lint-gated model registry: named builders + analyzer-gated admission.

The ROADMAP's compile-once item needs a place where servable models
*live*: the four built-in AHS strategy models and any user-defined SAN
register here under a stable name with a builder callable.  Admission
(:func:`admit`) runs the full static analyzer over the built model and
extracts the kernel IR of its stepped compile
(:func:`repro.analysis.extract_kernel_ir`); lint-clean models get their
:class:`~repro.analysis.AnalysisReport` and lowering-IR digest stored in
the content-addressed :class:`~repro.runtime.cache.ResultCache`, keyed
by the model's registry token through the same ``cache_key`` machinery
as the compile contexts — so a fleet lints each (model, strategy, n)
once ever, and a second admission is a cache hit.

Models that lint with errors are *not* cached: they re-analyze on every
admission attempt until fixed, so a stale rejection can never mask a
repaired model.

Command-line surface: ``repro-cli models list|lint|describe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "AdmissionResult",
    "ModelSpec",
    "admission_key",
    "admit",
    "get_model",
    "list_models",
    "register_model",
    "unregister_model",
]

#: payload schema tag for cached admission records
ADMISSION_SCHEMA = "repro-admission/1"


@dataclass(frozen=True)
class ModelSpec:
    """One registered model: a named, parameterised builder."""

    name: str
    builder: Callable[[], Any]
    description: str = ""
    tags: tuple[str, ...] = ()
    #: fingerprintable token identifying the built model's content —
    #: shares the ``cache_key`` keyspace with the compile contexts
    token: Any = None

    def build(self):
        """Construct the model (a fresh :class:`SANModel` per call)."""
        return self.builder()


@dataclass
class AdmissionResult:
    """Outcome of one :func:`admit` call."""

    name: str
    admitted: bool
    cached: bool
    key: str
    ir_digest: Optional[str]
    #: the analysis report in its JSON form (``AnalysisReport.to_dict``)
    report: dict = field(default_factory=dict)

    @property
    def errors(self) -> int:
        return int(self.report.get("summary", {}).get("errors", 0))

    @property
    def warnings(self) -> int:
        return int(self.report.get("summary", {}).get("warnings", 0))


_REGISTRY: dict[str, ModelSpec] = {}
_BUILTINS_LOADED = False


def register_model(
    name: str,
    builder: Callable[[], Any],
    *,
    description: str = "",
    tags: Iterable[str] = (),
    token: Any = None,
    replace: bool = False,
) -> ModelSpec:
    """Register ``builder`` under ``name``; returns the spec.

    ``token`` defaults to ``{"registry-model": name}`` — callers whose
    builder output varies with external parameters should pass a token
    covering those parameters, or admission cache entries would alias.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"model name must be a non-empty string, got {name!r}")
    if not callable(builder):
        raise TypeError(f"builder for {name!r} must be callable")
    if not replace and name in _REGISTRY:
        raise ValueError(
            f"model {name!r} is already registered; pass replace=True "
            "to overwrite"
        )
    spec = ModelSpec(
        name=name,
        builder=builder,
        description=description,
        tags=tuple(tags),
        token=token if token is not None else {"registry-model": name},
    )
    _REGISTRY[name] = spec
    return spec


def unregister_model(name: str) -> bool:
    """Remove ``name`` from the registry; True when it was present."""
    return _REGISTRY.pop(name, None) is not None


def _ensure_builtins() -> None:
    """Register the four AHS strategy models on first registry use.

    Imported lazily: ``repro.core`` itself imports ``repro.san``, so a
    module-level import here would be circular.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.core import AHSParameters, Strategy, build_composed_model

    for strategy in Strategy:
        params = AHSParameters(max_platoon_size=2, strategy=strategy)

        def builder(_params=params):
            return build_composed_model(_params).model

        name = f"ahs-{strategy.value.lower()}"
        if name in _REGISTRY:  # a user override wins
            continue
        register_model(
            name,
            builder,
            description=(
                f"composed AHS failure model, strategy "
                f"{strategy.value}, max platoon size 2"
            ),
            tags=("builtin", "ahs", strategy.value.lower()),
            token={
                "registry-model": name,
                "params": params,
            },
        )


def get_model(name: str) -> ModelSpec:
    """The spec registered under ``name`` (ValueError with known names)."""
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ValueError(f"unknown model {name!r}; registered: {known}")
    return spec


def list_models() -> list[ModelSpec]:
    """All registered specs, sorted by name (built-ins included)."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def admission_key(spec: ModelSpec) -> str:
    """Content address of ``spec``'s admission record."""
    from repro.runtime.cache import cache_key

    return cache_key({
        "kind": "model-admission",
        "name": spec.name,
        "token": spec.token,
    })


def admit(
    model: str | ModelSpec,
    cache=None,
    *,
    families: Optional[Iterable[str]] = None,
    max_states: int = 256,
) -> AdmissionResult:
    """Run the admission gate for ``model`` (a name or a spec).

    With a :class:`~repro.runtime.cache.ResultCache`, a previously
    admitted model returns its stored report and lowering-IR digest
    without rebuilding or re-analyzing anything (``cached=True``).
    """
    from repro.analysis import Severity, analyze_model, extract_kernel_ir

    spec = get_model(model) if isinstance(model, str) else model
    key = admission_key(spec)
    if cache is not None:
        payload = cache.get(key)
        if (
            isinstance(payload, dict)
            and payload.get("schema") == ADMISSION_SCHEMA
        ):
            return AdmissionResult(
                name=spec.name,
                admitted=True,
                cached=True,
                key=key,
                ir_digest=payload.get("ir_digest"),
                report=payload.get("report", {}),
            )

    built = spec.build()
    report = analyze_model(built, families=families, max_states=max_states)
    ir = extract_kernel_ir(built)
    digest = ir.digest() if ir is not None else None
    admitted = not report.at_least(Severity.ERROR)
    result = AdmissionResult(
        name=spec.name,
        admitted=admitted,
        cached=False,
        key=key,
        ir_digest=digest,
        report=report.to_dict(),
    )
    # only a *full* clean analysis earns a cached admission: a family
    # subset could miss errors, and the key does not cover the subset
    if admitted and cache is not None and families is None:
        cache.put(key, {
            "schema": ADMISSION_SCHEMA,
            "name": spec.name,
            "ir_digest": digest,
            "report": result.report,
        })
    return result

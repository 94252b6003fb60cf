"""Branch-path lowering of SAN gate predicates and rate functions.

The stepped engine evaluates the timed activities' enabling predicates and
rates as column expressions over a ``(B, n_slots)`` marking matrix, and
the compiled engine memoises each activity's refresh on the marking
values those expressions can read.  Both rest on one pass, kept here:

* gate code runs against a :class:`_LowerView` whose reads return
  symbolic :class:`_Node` column expressions; every truthiness decision
  is enumerated depth-first (:func:`_enumerate_paths`), so the union of
  the slots read over *all* branch paths — the activity's **lowered
  footprint** — is recorded alongside the fused ``np.where`` expression
  (:func:`_build_tree`, :func:`_tree_expr`);
* activities sharing gate/rate code (:func:`group_signature`) are traced
  once per group over ``(B, G)`` column blocks (:func:`lower_members`);
* anything that resists lowering — writes, extended places, coercions,
  exceptions, branch structures beyond the caps — raises
  :class:`_CannotLower`, and :func:`lower_timed` records the reason and
  leaves the activity to per-row closures.

The pass is marking-independent: :meth:`CompiledModel.lowering
<repro.san.compiled.CompiledModel.lowering>` runs it once per compiled
model and every engine bound to that model shares the result.
"""

from __future__ import annotations

import operator as _op
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["LoweredBlock", "Lowering", "group_signature", "lower_members",
           "lower_timed"]

# lowering caps: a gate whose branch structure exceeds these falls back
# to the per-row closure path instead of exploding the compile pass
_MAX_PATHS = 128
_MAX_DEPTH = 48


class _CannotLower(BaseException):
    """Raised (and caught internally) when a gate resists vectorization.

    Deliberately a ``BaseException``: gate code wrapped in broad
    ``except Exception`` handlers must not swallow the abort signal and
    let a half-traced expression masquerade as a lowered result.
    """


# ----------------------------------------------------------------------
# symbolic tracing: expression nodes + branch-path enumeration
# ----------------------------------------------------------------------
#: the branch trail the tracer is currently recording into (single
#: threaded by construction: lowering happens once, at engine build)
_ACTIVE_TRAIL: list = [None]


class _Node:
    """A deferred column expression over the batch marking matrix.

    ``ev(M)`` maps the ``(B, n_slots)`` matrix to a length-B column (or
    a scalar for constant subtrees).  Arithmetic and comparisons build
    bigger nodes; truthiness (`bool`) defers to the active branch trail,
    which is how data-dependent control flow is enumerated.  Escapes the
    numeric domain (``float``/``int``/``len``/iteration) abort lowering.
    """

    __slots__ = ("ev",)

    def __init__(self, ev: Callable[[np.ndarray], Any]) -> None:
        self.ev = ev

    # -- coercions that end symbolic execution --------------------------
    def __bool__(self) -> bool:
        trail = _ACTIVE_TRAIL[0]
        if trail is None:
            raise _CannotLower("truth value outside a tracing context")
        return trail.decide(self)

    def __float__(self):
        raise _CannotLower("float() coercion")

    def __int__(self):
        raise _CannotLower("int() coercion")

    def __index__(self):
        raise _CannotLower("index coercion")

    def __iter__(self):
        raise _CannotLower("iteration over a marking expression")

    def __len__(self):
        raise _CannotLower("len() of a marking expression")

    def __hash__(self):
        raise _CannotLower("hashing a marking expression")


def _ev_of(value: Any) -> Callable[[np.ndarray], Any]:
    """The evaluator of an operand (node or plain number)."""
    if isinstance(value, _Node):
        return value.ev
    if isinstance(value, (bool, int, float)):
        return lambda M, _c=value: _c
    raise _CannotLower(f"non-numeric operand {type(value).__name__}")


def _binary(op: Callable[[Any, Any], Any]):
    def method(self: _Node, other: Any) -> _Node:
        ev_other = _ev_of(other)
        ev_self = self.ev
        return _Node(lambda M: op(ev_self(M), ev_other(M)))

    return method


def _rbinary(op: Callable[[Any, Any], Any]):
    def method(self: _Node, other: Any) -> _Node:
        ev_other = _ev_of(other)
        ev_self = self.ev
        return _Node(lambda M: op(ev_other(M), ev_self(M)))

    return method


def _unary(op: Callable[[Any], Any]):
    def method(self: _Node) -> _Node:
        ev_self = self.ev
        return _Node(lambda M: op(ev_self(M)))

    return method


for _name, _fn in [
    ("__add__", _op.add), ("__sub__", _op.sub), ("__mul__", _op.mul),
    ("__truediv__", _op.truediv), ("__floordiv__", _op.floordiv),
    ("__mod__", _op.mod), ("__pow__", _op.pow),
    ("__lt__", _op.lt), ("__le__", _op.le), ("__gt__", _op.gt),
    ("__ge__", _op.ge), ("__eq__", _op.eq), ("__ne__", _op.ne),
]:
    setattr(_Node, _name, _binary(_fn))
for _name, _fn in [
    ("__radd__", _op.add), ("__rsub__", _op.sub), ("__rmul__", _op.mul),
    ("__rtruediv__", _op.truediv), ("__rfloordiv__", _op.floordiv),
    ("__rmod__", _op.mod), ("__rpow__", _op.pow),
]:
    setattr(_Node, _name, _rbinary(_fn))
for _name, _fn in [
    ("__neg__", _op.neg), ("__pos__", _op.pos), ("__abs__", _op.abs),
]:
    setattr(_Node, _name, _unary(_fn))
del _name, _fn


class _BranchTrail:
    """One forced-outcome replay of a gate function.

    The first ``len(forced)`` truthiness decisions take the forced
    outcomes; later ones default to ``True`` and are recorded so the
    enumerator can queue their flipped variants.
    """

    __slots__ = ("forced", "decisions")

    def __init__(self, forced: tuple) -> None:
        self.forced = forced
        self.decisions: list[tuple[_Node, bool]] = []

    def decide(self, node: _Node) -> bool:
        depth = len(self.decisions)
        if depth >= _MAX_DEPTH:
            raise _CannotLower("branch depth cap exceeded")
        outcome = self.forced[depth] if depth < len(self.forced) else True
        self.decisions.append((node, outcome))
        return outcome


class _LowerView:
    """The gate-view stand-in used while tracing a predicate or rate.

    Bound to a *group* of activities sharing the same gate/rate code:
    each local name maps to one slot per group member, so reads return
    ``(B, G)`` column-block :class:`_Node` expressions and record every
    member's global slot and the local name read.  Writes and
    extended-place reads abort lowering (the per-row closure fallback
    handles those activities with compiled-engine semantics).
    """

    __slots__ = ("_cols", "_extended", "reads", "names")

    def __init__(
        self, cols: dict[str, np.ndarray], extended: frozenset
    ) -> None:
        self._cols = cols
        self._extended = extended
        self.reads: set[int] = set()
        self.names: set[str] = set()

    def __getitem__(self, local: str) -> _Node:
        cols = self._cols[local]  # KeyError → _CannotLower via enumerator
        slots = [int(slot) for slot in cols]
        if any(slot in self._extended for slot in slots):
            raise _CannotLower(f"extended place read {local!r}")
        self.reads.update(slots)
        self.names.add(local)
        return _Node(lambda M, _c=cols: M[:, _c])

    def __setitem__(self, local: str, value: Any):
        raise _CannotLower("marking write during predicate/rate tracing")

    def inc(self, local: str, amount: int = 1):
        raise _CannotLower("marking write during predicate/rate tracing")

    def dec(self, local: str, amount: int = 1):
        raise _CannotLower("marking write during predicate/rate tracing")

    def tuple_set(self, local: str, index: int, value: Any):
        raise _CannotLower("marking write during predicate/rate tracing")


def _enumerate_paths(fn: Callable, view: _LowerView) -> list:
    """All (decision sequence, result) pairs of ``fn`` over the view.

    Depth-first forced replay: run with every decision defaulting to
    True, then re-run with each defaulted decision flipped, recursively.
    Pure numeric gate code terminates with at most 2^depth paths; the
    caps bound pathological cases.
    """
    paths = []
    stack: list[tuple] = [()]
    while stack:
        forced = stack.pop()
        trail = _BranchTrail(forced)
        previous = _ACTIVE_TRAIL[0]
        _ACTIVE_TRAIL[0] = trail
        try:
            result = fn(view)
        except _CannotLower:
            raise
        except Exception as exc:
            # a gate that raises under some branch combination cannot be
            # vectorized; the runtime fallback reproduces the real error
            raise _CannotLower(f"path evaluation raised {type(exc).__name__}")
        finally:
            _ACTIVE_TRAIL[0] = previous
        paths.append((tuple(trail.decisions), result))
        if len(paths) > _MAX_PATHS:
            raise _CannotLower("branch path cap exceeded")
        for depth in range(len(forced), len(trail.decisions)):
            prefix = tuple(o for _, o in trail.decisions[:depth])
            stack.append(prefix + (False,))
    return paths


def _build_tree(paths: list, depth: int):
    """Fold enumerated paths into a binary decision tree.

    Nodes are ``("leaf", value)`` or ``("branch", cond, true, false)``.
    Purity of gate code guarantees all paths sharing a decision prefix
    met the same condition at the same depth; violations abort lowering.
    """
    terminal = [p for p in paths if len(p[0]) == depth]
    ongoing = [p for p in paths if len(p[0]) > depth]
    if terminal and ongoing:
        raise _CannotLower("non-deterministic branch structure")
    if terminal:
        if len(terminal) != 1:
            raise _CannotLower("duplicate decision paths")
        value = terminal[0][1]
        if not isinstance(value, (_Node, bool, int, float)):
            raise _CannotLower(f"non-numeric result {type(value).__name__}")
        return ("leaf", value)
    if not ongoing:
        raise _CannotLower("empty path set")
    condition = ongoing[0][0][depth][0]
    true_side = [p for p in ongoing if p[0][depth][1]]
    false_side = [p for p in ongoing if not p[0][depth][1]]
    if not true_side or not false_side:
        raise _CannotLower("one-sided branch enumeration")
    return (
        "branch",
        condition,
        _build_tree(true_side, depth + 1),
        _build_tree(false_side, depth + 1),
    )


def _tree_expr(tree) -> tuple[Callable, Optional[float]]:
    """Fold the tree into one column expression ``expr(M)``.

    Returns ``(expr, const)`` where ``const`` is the Python value when
    the whole tree is a constant leaf (letting callers special-case it).
    Branches become element-wise ``np.where`` selections — both sides are
    evaluated over all rows, which is exactly what the earlier masked
    formulation did too (a leaf's expression ignores its mask), so the
    selected values are bit-identical while the per-branch mask algebra,
    ``.any()`` guards and per-leaf ``copyto`` calls disappear.
    """
    kind = tree[0]
    if kind == "leaf":
        value = tree[1]
        if isinstance(value, _Node):
            return value.ev, None
        constant = float(value)
        return (lambda M, _c=constant: _c), constant

    _, condition, true_tree, false_tree = tree
    cond_ev = condition.ev
    true_expr, true_const = _tree_expr(true_tree)
    false_expr, false_const = _tree_expr(false_tree)
    if true_const == 1.0 and false_const == 0.0:
        # `x and y`-style predicate chains bottom out in 1/0 leaves; the
        # branch then IS its condition (as 0/1 via the boolean array)
        return (lambda M: np.asarray(cond_ev(M)) != 0), None

    def expr(M):
        return np.where(
            np.asarray(cond_ev(M)) != 0, true_expr(M), false_expr(M)
        )

    return expr, None


def _lower_group(
    fn: Callable,
    bindings: list[dict[str, int]],
    extended: frozenset,
) -> tuple[Callable, set[int], list[np.ndarray]]:
    """Lower one predicate/rate over a member group.

    ``bindings`` carries each member's local-name → global-slot mapping;
    the shared ``fn`` is traced once and the resulting expression reads
    ``(B, G)`` column blocks (member ``g``'s slots in column ``g``).
    Returns the fused expression, the union of read slots, and the
    footprint *roles*: one ``(G,)`` slot vector per local name read on
    any branch path, in sorted name order.
    """
    try:
        cols = {
            name: np.array(
                [binding[name] for binding in bindings], dtype=np.intp
            )
            for name in bindings[0]
        }
    except KeyError as exc:
        raise _CannotLower(f"unaligned gate binding {exc}") from None
    view = _LowerView(cols, extended)
    paths = _enumerate_paths(fn, view)
    tree = _build_tree(paths, 0)
    expr, _const = _tree_expr(tree)
    return expr, set(view.reads), [cols[name] for name in sorted(view.names)]


# ----------------------------------------------------------------------
# member groups and the model-level pass
# ----------------------------------------------------------------------
def group_signature(activity) -> tuple:
    """The code identity a lowered group's members share.

    The composed model stamps the same per-vehicle activity types across
    its 2n replicas, so the input-gate predicates and the rate function
    recur as the *same* function objects with different place bindings.
    Activities with equal signatures run the same code; only their
    bindings (and constant rates) differ.
    """
    _constant, rate_fn = activity.exponential_parts()
    return (
        tuple(id(gate.predicate) for gate in activity.input_gates),
        id(rate_fn.fn) if rate_fn is not None else None,
    )


class LoweredBlock:
    """One lowered member group, independent of any bias or marking.

    The *roles* are the group's footprint in local-name order: one
    ``(G,)`` slot vector per name the code can read on any branch path,
    for the gates (by gate position) and for the rate.  :meth:`footprint`
    gives one member's slots; ``reads`` is the union of every member's
    footprint slots.
    """

    __slots__ = ("indices", "names", "gate_exprs", "eff_consts", "rate_expr",
                 "reads", "gate_roles", "rate_roles")

    def __init__(self, indices, names, gate_exprs, eff_consts, rate_expr,
                 reads: set[int], gate_roles: list[np.ndarray],
                 rate_roles: list[np.ndarray]) -> None:
        self.indices = indices        # timed-activity indices, in order
        self.names = names
        self.gate_exprs = gate_exprs  # fused truthy expressions, (B, G)
        self.eff_consts = eff_consts  # (G,) float64, <= 0 clamped (or None)
        self.rate_expr = rate_expr
        self.reads = reads
        self.gate_roles = gate_roles
        self.rate_roles = rate_roles

    def footprint(self, position: int) -> tuple[int, ...]:
        """Member ``position``'s footprint slots, gate roles then rate."""
        return tuple(
            int(role[position]) for role in self.gate_roles + self.rate_roles
        )


def lower_members(compiled, indices: list[int],
                  extended: frozenset) -> LoweredBlock:
    """Lower the gates and rate of timed activities sharing one signature."""
    slot_of = compiled.slot_of
    members = [compiled.timed[i] for i in indices]
    template = members[0]
    gate_exprs = []
    reads: set[int] = set()
    gate_roles: list[np.ndarray] = []
    rate_roles: list[np.ndarray] = []
    for position in range(len(template.input_gates)):
        expr, gate_reads, roles = _lower_group(
            template.input_gates[position].predicate,
            [m.input_gates[position].slot_binding(slot_of) for m in members],
            extended,
        )
        gate_exprs.append(expr)
        reads |= gate_reads
        gate_roles += roles
    _c0, rate_fn = template.exponential_parts()
    if rate_fn is None:
        rate_expr = None
        consts = np.array([float(m.exponential_parts()[0]) for m in members])
        eff_consts = np.where(consts > 0.0, consts, 0.0)
    else:
        eff_consts = None
        rate_expr, rate_reads, rate_roles = _lower_group(
            rate_fn.fn,
            [m.exponential_parts()[1].slot_binding(slot_of) for m in members],
            extended,
        )
        reads |= rate_reads
    return LoweredBlock(
        list(indices), [m.name for m in members], gate_exprs, eff_consts,
        rate_expr, reads, gate_roles, rate_roles,
    )


class Lowering:
    """The lowering of a compiled model's timed activities.

    ``blocks`` in signature-group order (a group that fails collectively
    is retried member by member); ``fallback_indices`` (sorted) and
    ``fallback_reasons`` (activity name → reason) cover the rest.
    """

    __slots__ = ("blocks", "fallback_indices", "fallback_reasons")

    def __init__(self, blocks, fallback_indices, fallback_reasons) -> None:
        self.blocks: list[LoweredBlock] = blocks
        self.fallback_indices: list[int] = fallback_indices
        self.fallback_reasons: dict[str, str] = fallback_reasons


def lower_timed(compiled) -> Lowering:
    """Lower every timed activity of ``compiled`` that lowers."""
    extended = frozenset(
        slot for slot, place in enumerate(compiled.places)
        if place.is_extended
    )
    signatures: dict[tuple, list[int]] = {}
    for index, activity in enumerate(compiled.timed):
        signatures.setdefault(group_signature(activity), []).append(index)

    blocks: list[LoweredBlock] = []
    fallback_indices: list[int] = []
    fallback_reasons: dict[str, str] = {}
    for members in signatures.values():
        try:
            blocks.append(lower_members(compiled, members, extended))
        except _CannotLower as group_exc:
            # a group can fail collectively (e.g. one member binds an
            # extended place) while others still lower individually
            group_reason = str(group_exc)
            for index in members:
                if len(members) > 1:
                    try:
                        blocks.append(
                            lower_members(compiled, [index], extended)
                        )
                        continue
                    except _CannotLower as solo_exc:
                        fallback_reasons[compiled.timed[index].name] = str(
                            solo_exc
                        )
                else:
                    fallback_reasons[compiled.timed[index].name] = (
                        group_reason
                    )
                fallback_indices.append(index)
    fallback_indices.sort()
    return Lowering(blocks, fallback_indices, fallback_reasons)

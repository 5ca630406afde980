"""A small numpy dtype lattice and its intraprocedural inference pass.

The exact-integer kernels (:mod:`repro.metrics.batch`,
:mod:`repro.aggregate.batch`, :mod:`repro.metrics.fast`) promise
bit-for-bit equality with the object layer. That promise rests on
staying inside the **int64 lattice** for counts and positions-as-
half-integers in float64 — and it breaks silently three ways:

* an implicit **float64 upcast** truncated back to int without explicit
  rounding (``(a / 4).astype(np.int64)`` — exact only by luck);
* an **int32 narrowing** (``astype(np.int32)``, ``dtype=np.int32``) that
  overflows past n ≈ 65 536 item pairs;
* a **reduction without an explicit accumulator dtype** on a bool/count
  array (``mask.sum()``), whose result dtype is the *platform* integer —
  int32 on Windows — so the same profile aggregates differently across
  machines.

:func:`scan_function_dtypes` walks one function in statement order,
tracking a ``name -> DType`` environment seeded from parameter
annotations (``npt.NDArray[np.int64]`` …) and interprocedural return-
dtype summaries, and reports each of the three hazards with the line it
occurs on. The lattice is deliberately coarse — INT64 / NARROW_INT /
FLOAT64 / BOOL / UNKNOWN — because the rule only needs to distinguish
"provably exact" from "provably hazardous"; anything murky stays
UNKNOWN and is never reported.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DType",
    "DTypeIssue",
    "DTypeScan",
    "scan_function_dtypes",
    "annotation_dtype",
    "dtype_of_text",
]


class DType(Enum):
    INT64 = "int64"
    NARROW_INT = "narrow-int"
    FLOAT64 = "float64"
    BOOL = "bool"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class DTypeIssue:
    """One dtype-soundness hazard at a source line."""

    line: int
    column: int
    kind: str  # "narrowing" | "unrounded-cast" | "default-accumulator"
    message: str


@dataclass(slots=True)
class DTypeScan:
    """Result of scanning one function."""

    issues: list[DTypeIssue]
    return_dtype: DType


_NARROW_RE = re.compile(r"\bu?int(8|16|32)\b")
_INT64_RE = re.compile(r"\bu?int(64|p)?\b")
_FLOAT_RE = re.compile(r"\bfloat(16|32|64)?\b|\bdouble\b")
_BOOL_RE = re.compile(r"\bbool_?\b")

#: numpy constructors whose default dtype is float64 when none is given.
_FLOAT_DEFAULT_CTORS = frozenset({"zeros", "ones", "empty", "linspace", "rand", "randn"})
#: constructors/functions returning the input dtype unchanged.
_PASSTHROUGH = frozenset(
    {
        "sort",
        "partition",
        "argpartition",
        "ascontiguousarray",
        "atleast_2d",
        "copy",
        "flip",
        "flatnonzero",
        "reshape",
        "ravel",
        "transpose",
        "take_along_axis",
        "append",
        "tile",
        "repeat",
        "stack",
        "concatenate",
        "vstack",
        "hstack",
        "where",
        "minimum",
        "maximum",
        "abs",
        "absolute",
        "diff",
        "cumsum",
        "roll",
    }
)
#: reductions whose accumulator dtype defaults to the platform integer
#: when the operand is bool (or stays narrow when the operand is narrow).
_REDUCTIONS = frozenset({"sum", "prod", "cumsum", "cumprod", "dot", "matmul", "trace"})
#: functions that provably return float64 regardless of input.
_FLOAT_RETURNING = frozenset({"rint", "round", "floor", "ceil", "trunc", "median", "mean"})
#: explicit-rounding evidence accepted before a float -> int cast.
_ROUNDING = frozenset({"rint", "round", "floor", "ceil", "trunc", "around", "floor_divide"})
#: functions returning int64 regardless of input.
_INT_RETURNING = frozenset({"bincount", "argsort", "lexsort", "argmax", "argmin", "searchsorted", "count_nonzero"})

#: The int32 storage fit check (:func:`repro.db.mmap_lists.int32_fits`).
#: A function that consults it is performing *sanctioned storage
#: narrowing*: int32 is legal for stored slots because the guard proved
#: ``2n < 2³¹``. Narrowing issues are suppressed in such functions;
#: default-accumulator issues are not — totals must stay int64 no matter
#: how the storage fits.
_FIT_GUARDS = frozenset({"int32_fits"})


def dtype_of_text(text: str) -> DType:
    """Classify a dtype expression's source text."""
    if _NARROW_RE.search(text):
        return DType.NARROW_INT
    if _BOOL_RE.search(text):
        return DType.BOOL
    if _FLOAT_RE.search(text):
        return DType.FLOAT64
    if _INT64_RE.search(text) or text in ("int", "np.int_"):
        return DType.INT64
    return DType.UNKNOWN


def annotation_dtype(annotation: ast.expr | None) -> DType:
    """Dtype encoded in an ``npt.NDArray[np.int64]``-style annotation."""
    if annotation is None:
        return DType.UNKNOWN
    text = ast.unparse(annotation)
    if "NDArray" not in text and "ndarray" not in text:
        return DType.UNKNOWN
    return dtype_of_text(text)


def _leaf(expr: ast.expr) -> str | None:
    """Rightmost attribute/name of a call target (``np.sum`` -> ``sum``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _join(left: DType, right: DType) -> DType:
    """Result dtype of arithmetic between two lattice values."""
    if DType.UNKNOWN in (left, right):
        return DType.UNKNOWN
    if DType.FLOAT64 in (left, right):
        return DType.FLOAT64
    if DType.NARROW_INT in (left, right):
        return DType.NARROW_INT
    if left == DType.BOOL and right == DType.BOOL:
        return DType.BOOL
    return DType.INT64


def _has_rounding(expr: ast.expr) -> bool:
    """Whether the expression tree contains explicit-rounding evidence."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            leaf = _leaf(node.func)
            if leaf in _ROUNDING:
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            return True
    return False


class _Inference:
    def __init__(
        self,
        env: dict[str, DType],
        return_dtypes: dict[str, DType],
        resolve: Callable[[ast.expr], str | None] | None,
        *,
        fit_guarded: bool = False,
    ) -> None:
        self.env = env
        self.return_dtypes = return_dtypes
        self.resolve = resolve
        self.fit_guarded = fit_guarded
        self.issues: list[DTypeIssue] = []

    def _issue(self, node: ast.AST, kind: str, message: str) -> None:
        self.issues.append(
            DTypeIssue(
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
                kind=kind,
                message=message,
            )
        )

    def _dtype_kwarg(self, call: ast.Call) -> DType | None:
        for keyword in call.keywords:
            if keyword.arg == "dtype" and keyword.value is not None:
                return dtype_of_text(ast.unparse(keyword.value))
        return None

    def infer(self, expr: ast.expr) -> DType:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, DType.UNKNOWN)
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return DType.BOOL
            if isinstance(expr.value, int):
                return DType.INT64
            if isinstance(expr.value, float):
                return DType.FLOAT64
            return DType.UNKNOWN
        if isinstance(expr, ast.Subscript):
            return self.infer(expr.value)
        if isinstance(expr, ast.UnaryOp):
            return self.infer(expr.operand)
        if isinstance(expr, ast.Compare):
            return DType.BOOL
        if isinstance(expr, ast.BinOp):
            left = self.infer(expr.left)
            right = self.infer(expr.right)
            if isinstance(expr.op, ast.Div):
                return DType.FLOAT64 if DType.UNKNOWN not in (left, right) else DType.UNKNOWN
            if isinstance(expr.op, ast.FloorDiv):
                joined = _join(left, right)
                return DType.INT64 if joined == DType.BOOL else joined
            return _join(left, right)
        if isinstance(expr, ast.IfExp):
            return _join(self.infer(expr.body), self.infer(expr.orelse))
        if isinstance(expr, ast.Call):
            return self._infer_call(expr)
        if isinstance(expr, ast.Attribute):
            if expr.attr == "T":
                return self.infer(expr.value)
            return DType.UNKNOWN
        return DType.UNKNOWN

    def _infer_call(self, call: ast.Call) -> DType:
        leaf = _leaf(call.func)
        explicit = self._dtype_kwarg(call)

        # method-style: operand is the attribute's receiver; np.f style:
        # operand is the first positional argument
        operand: ast.expr | None = None
        if isinstance(call.func, ast.Attribute) and leaf not in ("array", "asarray"):
            operand = call.func.value
        elif call.args:
            operand = call.args[0]
        operand_dtype = self.infer(operand) if operand is not None else DType.UNKNOWN

        if leaf == "astype":
            target = (
                dtype_of_text(ast.unparse(call.args[0])) if call.args else DType.UNKNOWN
            )
            if target == DType.NARROW_INT and not self.fit_guarded:
                self._issue(
                    call,
                    "narrowing",
                    "astype() narrows out of the int64 lattice; pair counts "
                    "overflow int32 past ~65k items — keep counts in np.int64 "
                    "(int32 *storage* is sanctioned only in functions that "
                    "consult the int32_fits() storage guard)",
                )
            if (
                target == DType.INT64
                and operand_dtype == DType.FLOAT64
                and operand is not None
                and not _has_rounding(operand)
            ):
                self._issue(
                    call,
                    "unrounded-cast",
                    "float64 value cast to int64 without explicit rounding "
                    "(np.rint/np.floor/...); C truncation makes the result "
                    "representation-dependent",
                )
            return target if target != DType.UNKNOWN else DType.UNKNOWN

        if leaf in _REDUCTIONS:
            if explicit is None and operand_dtype in (DType.BOOL, DType.NARROW_INT):
                # never sanctioned: the int32_fits guard legalizes narrow
                # *storage*, but totals must still accumulate in int64
                self._issue(
                    call,
                    "default-accumulator",
                    f"{leaf}() on a {operand_dtype.value} array without an "
                    "explicit dtype=; the accumulator defaults to the "
                    "operand/platform integer — pass dtype=np.int64 "
                    "(accumulators stay int64 even for guarded int32 storage)",
                )
            if explicit is not None:
                return explicit
            if operand_dtype in (DType.BOOL, DType.NARROW_INT, DType.UNKNOWN):
                return DType.UNKNOWN
            return operand_dtype

        if explicit is not None:
            if explicit == DType.NARROW_INT and not self.fit_guarded:
                self._issue(
                    call,
                    "narrowing",
                    f"{leaf}(dtype=...) allocates a narrow integer array; "
                    "exact-integer kernels stay in np.int64 (int32 storage "
                    "is sanctioned only under the int32_fits() storage guard)",
                )
            return explicit

        if leaf in _FLOAT_RETURNING:
            return DType.FLOAT64
        if leaf in _INT_RETURNING:
            return DType.INT64
        if leaf in _FLOAT_DEFAULT_CTORS:
            return DType.FLOAT64
        if leaf == "int32_fits":
            return DType.BOOL
        if leaf in ("sign",):
            return operand_dtype
        if leaf == "arange":
            return DType.INT64 if operand_dtype == DType.INT64 else operand_dtype
        if leaf in _PASSTHROUGH:
            return operand_dtype
        if leaf in ("array", "asarray", "full", "full_like", "empty_like", "zeros_like"):
            return DType.UNKNOWN

        # interprocedural: annotated return dtype of an analyzed function
        if self.resolve is not None:
            resolved = self.resolve(call.func)
            if resolved is not None and resolved in self.return_dtypes:
                return self.return_dtypes[resolved]
        return DType.UNKNOWN


def scan_function_dtypes(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    return_dtypes: dict[str, DType] | None = None,
    resolve: Callable[[ast.expr], str | None] | None = None,
) -> DTypeScan:
    """Infer dtypes through one function and collect hazards.

    ``return_dtypes`` maps qualified function names to their (annotated)
    array return dtype; ``resolve`` maps a call-target expression to such
    a name. Both default to empty, which degrades gracefully to a purely
    intraprocedural scan.
    """
    env: dict[str, DType] = {}
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        dtype = annotation_dtype(arg.annotation)
        if dtype != DType.UNKNOWN:
            env[arg.arg] = dtype

    # sanctioned storage narrowing: a function that consults the int32
    # fit guard anywhere in its body may narrow to int32 (the guard
    # proved the values fit); accumulator hazards stay in force
    fit_guarded = any(
        isinstance(inner, ast.Call) and _leaf(inner.func) in _FIT_GUARDS
        for inner in ast.walk(node)
    )

    inference = _Inference(env, return_dtypes or {}, resolve, fit_guarded=fit_guarded)
    return_dtype = annotation_dtype(node.returns)

    # source-order walk of the own body (nested defs excluded)
    statements: list[ast.stmt] = []

    def _collect(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            statements.append(stmt)
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if isinstance(inner, list):
                    _collect(inner)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    _collect(handler.body)

    _collect(node.body)

    for stmt in statements:
        if isinstance(stmt, ast.Assign):
            inferred = inference.infer(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = inferred
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotated = annotation_dtype(stmt.annotation)
            if stmt.value is not None:
                inferred = inference.infer(stmt.value)
                env[stmt.target.id] = annotated if annotated != DType.UNKNOWN else inferred
            else:
                env[stmt.target.id] = annotated
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id, DType.UNKNOWN)
                env[stmt.target.id] = _join(current, inference.infer(stmt.value))
            else:
                inference.infer(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            inferred = inference.infer(stmt.value)
            if (
                return_dtype == DType.INT64
                and inferred == DType.FLOAT64
                and not _has_rounding(stmt.value)
            ):
                inference._issue(
                    stmt,
                    "unrounded-cast",
                    "function annotated to return an int64 array returns a "
                    "float64 expression without explicit rounding",
                )
        elif isinstance(stmt, ast.Expr):
            inference.infer(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            inference.infer(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            inference.infer(stmt.iter)

    return DTypeScan(issues=inference.issues, return_dtype=return_dtype)

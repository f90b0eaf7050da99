"""AST-based streaming-invariant lint pass (the ``REPxxx`` rules).

Project-specific reproducibility and correctness hazards that generic
linters do not know about.  The authoritative catalogue lives in
:data:`RULE_DETAILS` below — one entry per rule with its summary, a longer
description, and the pass that implements it (this module for the lint
rules, :mod:`repro.analysis.concurrency` for REP008–REP011).  The
``docs/ANALYSIS.md`` table is rendered from the same registry via
:func:`render_rule_catalogue`, so prose and code cannot drift.

Suppress a finding on its line (or a module-level finding on line 1) with
``# repro: noqa[REP001]`` (several codes comma-separated) or a blanket
``# repro: noqa``.  Suppressed findings are retained with
``suppressed=True`` so tooling can audit them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "RULES",
    "RULE_DETAILS",
    "render_rule_catalogue",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: The authoritative rule registry: code -> summary (one line), detail
#: (what the rule flags and why), and the pass that implements it
#: (``"lint"`` = this module, run by default; ``"concurrency"`` =
#: :mod:`repro.analysis.concurrency`, opt-in via ``analyze --concurrency``).
RULE_DETAILS: dict[str, dict[str, str]] = {
    "REP000": {
        "pass": "lint",
        "summary": "file could not be parsed",
        "detail": "A syntax error stops every other rule for the file, so "
                  "it is reported as a finding rather than a crash.",
    },
    "REP001": {
        "pass": "lint",
        "summary": "unseeded global numpy RNG use",
        "detail": "Legacy `np.random.*` functions mutate hidden global "
                  "state and `default_rng()` without a seed is "
                  "unreproducible; thread an explicit seeded `Generator`.",
    },
    "REP002": {
        "pass": "lint",
        "summary": "in-place Tensor.data mutation outside repro.nn",
        "detail": "Writing `tensor.data` bypasses autograd bookkeeping; "
                  "only the nn substrate (optimizers, `load_state_dict`) "
                  "may do it.",
    },
    "REP003": {
        "pass": "lint",
        "summary": "float equality on distances/thresholds in shift/ or "
                   "core/",
        "detail": "Shift detection is built on float distances; exact "
                  "`==`/`!=` is a latent flake — compare against an "
                  "explicit tolerance.",
    },
    "REP004": {
        "pass": "lint",
        "summary": "broad except swallows the error",
        "detail": "In a streaming loop a swallowed crash silently becomes "
                  "thousands of wrong predictions; narrow the type or "
                  "re-raise.",
    },
    "REP005": {
        "pass": "lint",
        "summary": "event emitted around the Observability facade",
        "detail": "Calling `….sink.emit(...)` directly skips the enabled "
                  "check and the facade contract; use `obs.emit(...)`.",
    },
    "REP006": {
        "pass": "lint",
        "summary": "public module missing __all__",
        "detail": "The re-export surface of every public module is "
                  "explicit in this codebase.",
    },
    "REP007": {
        "pass": "lint",
        "summary": "per-element Python loop over window entries in core/",
        "detail": "The serving loop touches the window on every arrival; "
                  "an O(k) Python pass over `…entries` belongs in a "
                  "vectorized array operation (see docs/PERF.md).  "
                  "Inherently sequential loops carry an explanatory noqa.",
    },
    "REP008": {
        "pass": "concurrency",
        "summary": "unsynchronized shared mutable state reachable from "
                   "multiple execution contexts",
        "detail": "A module-level mutable or `self.*` attribute is written "
                  "without a lock while reachable from two or more "
                  "thread-sharing contexts (coordinator, thread-worker, "
                  "server-thread); guard the write or annotate the "
                  "happens-before that makes it safe.",
    },
    "REP009": {
        "pass": "concurrency",
        "summary": "fork-unsafety: threads, held locks, or leaked pipe "
                   "endpoints interacting with a fork",
        "detail": "Forking after starting a thread (or under a held lock) "
                  "copies locks and buffers mid-state into the child; "
                  "also flags pipe endpoints handed to a child but never "
                  "closed in the parent.",
    },
    "REP010": {
        "pass": "concurrency",
        "summary": "unbounded blocking call while holding a lock or inside "
                   "a supervised loop",
        "detail": "`recv`/`get`/`accept`/`sleep` with no timeout under a "
                  "lock (or in a supervised `while True`) can deadlock or "
                  "never observe shutdown; pass a timeout.",
    },
    "REP011": {
        "pass": "concurrency",
        "summary": "thread-local or shared singleton used across execution "
                   "contexts",
        "detail": "A `threading.local` (or thread-confined) singleton read "
                  "from a server/worker context sees different state per "
                  "thread; a shared singleton mutated outside the "
                  "coordinator races with readers.",
    },
    "REP012": {
        "pass": "lint",
        "summary": "per-batch allocation inside a replay kernel",
        "detail": "Functions marked `@replay_kernel` (repro.nn.kernels) "
                  "run on every replayed batch; constructing a `Tensor` or "
                  "calling `np.zeros`/`np.empty`/`*_like` there defeats "
                  "the preallocated-arena contract — allocate at capture "
                  "time and write with `out=` instead.",
    },
}

#: Rule catalog: code -> one-line summary (docs and the runner share it).
#: Derived from :data:`RULE_DETAILS`; only the ``lint``-pass rules run by
#: default, but the mapping covers every code for reporting.
RULES = {code: info["summary"] for code, info in RULE_DETAILS.items()
         if info["pass"] == "lint"}


def render_rule_catalogue() -> str:
    """The docs/ANALYSIS.md rule table, rendered from :data:`RULE_DETAILS`.

    Regenerated (and asserted in tests) so the documentation cannot drift
    from the registry again.
    """
    lines = [
        "| Code | Pass | Flags | Why |",
        "| --- | --- | --- | --- |",
    ]
    for code in sorted(RULE_DETAILS):
        info = RULE_DETAILS[code]
        lines.append(f"| {code} | {info['pass']} | {info['summary']} "
                     f"| {info['detail']} |")
    return "\n".join(lines) + "\n"

#: numpy.random attributes that are part of the seeded, explicit-Generator
#: API; everything else on the module is legacy global state.
_SEEDED_RANDOM_API = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: Method names whose call results are floating-point statistics; comparing
#: them with == / != is what REP003 flags.
_FLOAT_PRODUCERS = frozenset({
    "std", "mean", "var", "norm", "item", "weighted_mean", "distance",
})

#: Allocating numpy constructors REP012 forbids inside replay kernels.
_ARENA_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
})

_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, possibly suppressed by a ``noqa`` annotation."""

    code: str
    message: str
    path: str
    line: int
    col: int
    suppressed: bool = False

    def describe(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{tag}"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "path": self.path,
                "line": self.line, "col": self.col,
                "suppressed": self.suppressed}


def _suppressed_codes(line_text: str):
    """Codes suppressed on a physical line: ``None``, ``"all"``, or a set."""
    match = _NOQA.search(line_text)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return "all"
    return {code.strip().upper() for code in codes.split(",") if code.strip()}


def _is_np_random(node: ast.expr) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))


class _Visitor(ast.NodeVisitor):
    """Single-pass collector for all per-node rules."""

    def __init__(self, path_parts: tuple, add):
        self.in_nn = "nn" in path_parts
        self.in_obs = "obs" in path_parts
        self.in_core = "core" in path_parts
        self.shift_or_core = bool({"shift", "core"} & set(path_parts))
        self.add = add

    # -- REP001 ---------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_np_random(node.value) and node.attr not in _SEEDED_RANDOM_API:
            self.add("REP001",
                     f"np.random.{node.attr} uses the hidden global RNG; "
                     f"thread a seeded np.random.default_rng(seed) instead",
                     node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "default_rng"
                and _is_np_random(func.value)
                and not node.args and not node.keywords):
            self.add("REP001",
                     "np.random.default_rng() without a seed is "
                     "unreproducible; pass an explicit seed or Generator",
                     node)
        if (not self.in_obs and isinstance(func, ast.Attribute)
                and func.attr == "emit"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "sink"):
            self.add("REP005",
                     "emit events through the Observability facade "
                     "(obs.emit(...)), not directly on its sink",
                     node)
        self.generic_visit(node)

    # -- REP002 ---------------------------------------------------------------

    @staticmethod
    def _is_data_store(target: ast.expr) -> bool:
        if isinstance(target, ast.Attribute) and target.attr == "data":
            return True
        return (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "data")

    def _check_data_mutation(self, targets, node) -> None:
        if self.in_nn:
            return
        for target in targets:
            if self._is_data_store(target):
                self.add("REP002",
                         "in-place Tensor.data mutation bypasses autograd; "
                         "only repro.nn (optimizers, load_state_dict) may "
                         "write .data",
                         node)
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_data_mutation(node.targets, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_data_mutation([node.target], node)
        self.generic_visit(node)

    # -- REP003 ---------------------------------------------------------------

    @staticmethod
    def _is_float_operand(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FLOAT_PRODUCERS)

    def visit_Compare(self, node: ast.Compare) -> None:
        if (self.shift_or_core
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(self._is_float_operand(operand)
                        for operand in [node.left, *node.comparators])):
            self.add("REP003",
                     "exact float equality on a distance/statistic is a "
                     "latent flake; compare against an explicit tolerance",
                     node)
        self.generic_visit(node)

    # -- REP007 ---------------------------------------------------------------

    @staticmethod
    def _references_entries(node: ast.expr) -> str | None:
        """Name the ``…entries`` collection ``node`` iterates, if any.

        Sees through wrappers like ``enumerate(...)`` / ``reversed(...)`` /
        ``zip(...)`` because :func:`ast.walk` descends into call arguments.
        """
        for child in ast.walk(node):
            if (isinstance(child, ast.Attribute)
                    and child.attr.endswith("entries")):
                return child.attr
            if isinstance(child, ast.Name) and child.id.endswith("entries"):
                return child.id
        return None

    def visit_For(self, node: ast.For) -> None:
        collection = (self._references_entries(node.iter)
                      if self.in_core else None)
        if collection is not None:
            self.add("REP007",
                     f"per-element Python loop over {collection} runs O(k) "
                     f"interpreter work on the serving hot path; vectorize "
                     f"it (one array pass) or annotate why it must stay "
                     f"sequential",
                     node)
        self.generic_visit(node)

    # -- REP004 ---------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if broad and not any(isinstance(child, ast.Raise)
                             for stmt in node.body
                             for child in ast.walk(stmt)):
            what = "bare except" if node.type is None else \
                f"except {node.type.id}"
            self.add("REP004",
                     f"{what} swallows the error; narrow the exception type "
                     f"or re-raise",
                     node)
        self.generic_visit(node)

    # -- REP012 ---------------------------------------------------------------

    @staticmethod
    def _is_replay_kernel(node: ast.FunctionDef) -> bool:
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Name) and \
                    decorator.id == "replay_kernel":
                return True
            if isinstance(decorator, ast.Attribute) and \
                    decorator.attr == "replay_kernel":
                return True
        return False

    @staticmethod
    def _allocation_name(call: ast.Call) -> str | None:
        """Name the allocator ``call`` invokes, if it is one REP012 flags."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "Tensor":
            return "Tensor(...)"
        if (isinstance(func, ast.Attribute)
                and func.attr in _ARENA_ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            return f"np.{func.attr}"
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._is_replay_kernel(node):
            for stmt in node.body:
                for child in ast.walk(stmt):
                    if not isinstance(child, ast.Call):
                        continue
                    allocator = self._allocation_name(child)
                    if allocator is not None:
                        self.add("REP012",
                                 f"{allocator} allocates on every replayed "
                                 f"batch; replay kernels must write into "
                                 f"the preallocated arena (out=) — allocate "
                                 f"at capture time",
                                 child)
        self.generic_visit(node)


def _has_public_definitions(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.name.startswith("_"):
                return True
    return False


def _has_dunder_all(tree: ast.Module) -> bool:
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
    return False


def lint_source(source: str, path: str | Path) -> list:
    """Lint one module's source text; returns findings (incl. suppressed)."""
    path = Path(path)
    parts = path.parts
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [Finding("REP000", f"syntax error: {error.msg}", str(path),
                        error.lineno or 1, (error.offset or 1) - 1)]
    lines = source.splitlines()
    findings: list[Finding] = []

    def add(code: str, message: str, node) -> None:
        line, col = node.lineno, node.col_offset
        line_text = lines[line - 1] if 0 < line <= len(lines) else ""
        codes = _suppressed_codes(line_text)
        suppressed = codes == "all" or (codes is not None and code in codes)
        findings.append(Finding(code, message, str(path), line, col,
                                suppressed=suppressed))

    _Visitor(parts, add).visit(tree)

    stem = path.stem
    module_is_public = not stem.startswith("_") or stem == "__init__"
    if (module_is_public and _has_public_definitions(tree)
            and not _has_dunder_all(tree)):
        # Module-level finding: anchored to (and suppressible on) line 1.
        anchor = type("_Anchor", (), {"lineno": 1, "col_offset": 0})()
        add("REP006",
            "public module defines names but no __all__; declare its "
            "export surface explicitly",
            anchor)

    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def lint_file(path: str | Path) -> list:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), path)


def lint_paths(paths) -> list:
    """Lint files and/or directory trees (``*.py``, hidden dirs skipped).

    Raises :class:`FileNotFoundError` for a path that does not exist.
    """
    findings: list[Finding] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                if any(part.startswith(".") for part in file.parts):
                    continue
                findings.extend(lint_file(file))
        elif entry.is_file():
            findings.extend(lint_file(entry))
        else:
            raise FileNotFoundError(f"no such file or directory: {entry}")
    return findings

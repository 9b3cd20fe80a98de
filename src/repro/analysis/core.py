"""The invariant-linter framework: findings, checkers, dispatch, suppression.

The repo's reproducibility guarantees (bit-identical instrumented runs,
seed-for-seed facade equivalence, crash-consistent publishes) rest on
invariants that no test can see directly — every random draw threads an
explicit generator, every hot-loop telemetry probe is gated, every shared
write happens under the owning lock.  This module is the machinery that
checks those invariants statically, on the stdlib :mod:`ast` alone:

* :class:`Finding` / :class:`Rule` — one violation, and the description of
  the invariant behind it;
* :class:`Checker` — plugin base class; subclasses declare ``RULES`` and
  ``visit_<NodeType>`` handlers and register with :func:`register_checker`;
* :class:`Analyzer` — walks each module's AST **once**, dispatching every
  node to every interested checker (single-pass visitor dispatch), then
  applies per-line ``# repro: noqa[RULE]`` suppressions — flagging the
  suppressions that matched nothing — and an optional committed baseline.

Checkers receive a :class:`ModuleContext` carrying the dotted module name,
source lines, the ancestor stack of the node being visited, and the scope
(function/class) stack, which is what makes context-sensitive rules (\"is
this call guarded by ``if obs.enabled``?\", \"is this store under ``with
self._lock``?\") single-pass-expressible.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Analyzer",
    "AnalysisReport",
    "Checker",
    "Finding",
    "ModuleContext",
    "Rule",
    "SUPPRESSION_RULE",
    "all_rules",
    "attribute_chain",
    "call_chain",
    "iter_python_files",
    "module_name_for",
    "register_checker",
    "registered_checkers",
    "root_name",
]

#: Rule code of the framework's own finding: a ``# repro: noqa`` comment
#: that suppressed nothing (stale after a fix, or a typo'd rule code).
SUPPRESSION_RULE = "SUP001"

#: Anchored to the start of the comment token, so prose *mentioning* the
#: marker (like this very comment) is not itself a suppression.
_NOQA_PATTERN = re.compile(
    r"\A#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)

#: Node types that open a new lexical scope for the context's scope stack.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


@dataclass(frozen=True)
class Rule:
    """One checkable invariant: its code, summary, and the reason it exists."""

    code: str
    summary: str
    invariant: str


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


# --------------------------------------------------------------------- #
# AST helpers shared by the checkers
# --------------------------------------------------------------------- #
def attribute_chain(node: ast.AST) -> Optional[str]:
    """The dotted name of a ``Name``/``Attribute`` chain (else ``None``).

    ``np.random.default_rng`` → ``"np.random.default_rng"``; anything with a
    call, subscript or other expression in the middle returns ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_chain(node: ast.AST) -> Tuple[str, ...]:
    """Attribute/call descent of an expression, outermost attr last.

    Unlike :func:`attribute_chain` this sees *through* calls and subscripts:
    ``obs.registry.counter("x").value`` →
    ``("obs", "registry", "counter", "value")``.  The root element is the
    base name (or the called function's name for a call root).
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return tuple(reversed(parts))


def root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` a subscript/attribute/call expression hangs off."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call, ast.Starred)):
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            node = node.func
    return node.id if isinstance(node, ast.Name) else None


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walked up through ``__init__.py``s."""
    path = Path(path)
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


# --------------------------------------------------------------------- #
# Module context
# --------------------------------------------------------------------- #
class ModuleContext:
    """Everything a checker sees while one module is being walked."""

    def __init__(self, path: str, module: str, source: str, tree: ast.Module):
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.findings: List[Finding] = []
        #: Ancestors of the node currently being dispatched (module first,
        #: immediate parent last; the node itself is not included).
        self.ancestors: List[ast.AST] = []
        #: Enclosing scope nodes (functions/classes/lambdas), outermost first.
        self.scopes: List[ast.AST] = []

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(Finding(self.path, line, rule, message))

    def enclosing_function(self) -> Optional[ast.AST]:
        """Innermost enclosing function (``None`` at module/class level)."""
        for scope in reversed(self.scopes):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return scope
        return None


class Checker:
    """Base class for rule-family plugins.

    Subclasses set ``name`` (registry key) and ``RULES`` and implement any
    number of ``visit_<NodeType>(node, ctx)`` methods; the analyzer calls
    each handler exactly once per matching node during its single walk.
    ``begin_module`` / ``finish_module`` bracket the walk for per-module
    state (import tables, deferred whole-module checks).
    """

    name = "base"
    RULES: Tuple[Rule, ...] = ()

    def begin_module(self, ctx: ModuleContext) -> None:
        """Reset per-module state before the walk starts."""

    def finish_module(self, ctx: ModuleContext) -> None:
        """Emit findings that need the whole module (after the walk)."""


#: name → checker class, in registration order (dicts preserve it).
CHECKER_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to :data:`CHECKER_REGISTRY`."""
    if cls.name in CHECKER_REGISTRY:
        raise ValueError(f"checker {cls.name!r} is already registered")
    CHECKER_REGISTRY[cls.name] = cls
    return cls


def registered_checkers() -> List[Type[Checker]]:
    """Every registered checker class, in registration order."""
    return list(CHECKER_REGISTRY.values())


def all_rules() -> List[Rule]:
    """Every rule of every registered checker, plus the framework's own."""
    rules = [
        Rule(
            SUPPRESSION_RULE,
            "unused `# repro: noqa` suppression",
            "a suppression that matches no finding is stale (the violation "
            "was fixed) or typo'd, and would silently mask a future one",
        )
    ]
    for cls in CHECKER_REGISTRY.values():
        rules.extend(cls.RULES)
    return sorted(rules, key=lambda rule: rule.code)


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #
class _Suppression:
    __slots__ = ("line", "codes", "used")

    def __init__(self, line: int, codes: Optional[Set[str]]):
        self.line = line
        self.codes = codes  # None = suppress every rule on the line
        self.used = False

    def matches(self, finding: Finding) -> bool:
        return (
            finding.line == self.line
            and (self.codes is None or finding.rule in self.codes)
        )


def _scan_suppressions(source: str) -> List[_Suppression]:
    """Parse ``# repro: noqa[...]`` comments — real comment tokens only.

    Tokenizing (rather than scanning raw lines) keeps noqa examples inside
    docstrings and string literals from registering as suppressions.
    """
    suppressions = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_PATTERN.search(token.string)
            if match is None:
                continue
            codes = match.group("codes")
            parsed = (
                None
                if codes is None
                else {
                    code.strip().upper()
                    for code in codes.split(",")
                    if code.strip()
                }
            )
            suppressions.append(_Suppression(token.start[0], parsed))
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        pass
    return suppressions


# --------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------- #
@dataclass
class AnalysisReport:
    """The outcome of one analyzer run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} in {self.files_checked} files "
            f"({self.suppressed} suppressed, {self.baselined} baselined)"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# The analyzer
# --------------------------------------------------------------------- #
class Analyzer:
    """Single-pass AST analysis over a set of checkers.

    Parameters
    ----------
    checkers:
        Checker *instances* to run; defaults to one of each registered
        class.
    select / ignore:
        Optional rule-code filters (exact codes or family prefixes, e.g.
        ``"RNG"`` or ``"RNG003"``).  When either is given, unused-suppression
        detection is disabled — a noqa for a deselected rule is not stale.
    """

    def __init__(
        self,
        checkers: Optional[Sequence[Checker]] = None,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ):
        if checkers is None:
            checkers = [cls() for cls in registered_checkers()]
        self._checkers = list(checkers)
        self._select = tuple(code.upper() for code in select) if select else None
        self._ignore = tuple(code.upper() for code in ignore) if ignore else ()
        self._filtered = bool(select) or bool(ignore)
        self._handlers: Dict[str, List[Callable[[ast.AST, ModuleContext], None]]] = {}
        for checker in self._checkers:
            for attr in dir(checker):
                if attr.startswith("visit_"):
                    self._handlers.setdefault(attr[len("visit_"):], []).append(
                        getattr(checker, attr)
                    )

    # ------------------------------------------------------------------ #
    def check_source(
        self, source: str, path: str = "<string>", module: Optional[str] = None
    ) -> List[Finding]:
        """Analyze one module's source; returns its post-suppression findings."""
        tree = ast.parse(source, filename=path)
        if module is None:
            module = module_name_for(Path(path)) if path != "<string>" else "<string>"
        ctx = ModuleContext(path=path, module=module, source=source, tree=tree)
        for checker in self._checkers:
            checker.begin_module(ctx)
        self._walk(tree, ctx)
        for checker in self._checkers:
            checker.finish_module(ctx)
        return self._apply_suppressions(ctx)

    def check_file(self, path: Path) -> List[Finding]:
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        return self.check_source(source, path=str(path), module=module_name_for(path))

    def check_paths(
        self,
        paths: Sequence[Path],
        baseline: Optional[Iterable[Tuple[str, str, str]]] = None,
    ) -> AnalysisReport:
        """Analyze files/directories; optionally subtract a baseline.

        ``baseline`` entries are ``(rule, path, message)`` triples (line
        numbers deliberately excluded — grandfathered findings survive
        unrelated edits above them).
        """
        report = AnalysisReport()
        baseline_set = set(baseline) if baseline is not None else set()
        for file_path in iter_python_files([Path(p) for p in paths]):
            findings = self.check_file(file_path)
            report.files_checked += 1
            for finding in findings:
                key = (finding.rule, Path(finding.path).as_posix(), finding.message)
                if key in baseline_set:
                    report.baselined += 1
                else:
                    report.findings.append(finding)
            report.suppressed += self._last_suppressed
        report.findings.sort()
        return report

    # ------------------------------------------------------------------ #
    def _walk(self, node: ast.AST, ctx: ModuleContext) -> None:
        for handler in self._handlers.get(type(node).__name__, ()):
            handler(node, ctx)
        is_scope = isinstance(node, _SCOPE_NODES)
        ctx.ancestors.append(node)
        if is_scope:
            ctx.scopes.append(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child, ctx)
        ctx.ancestors.pop()
        if is_scope:
            ctx.scopes.pop()

    _last_suppressed = 0

    def _apply_suppressions(self, ctx: ModuleContext) -> List[Finding]:
        suppressions = _scan_suppressions(ctx.source)
        kept: List[Finding] = []
        suppressed = 0
        for finding in sorted(ctx.findings):
            matched = False
            for suppression in suppressions:
                if suppression.matches(finding):
                    suppression.used = True
                    matched = True
            if matched:
                suppressed += 1
            else:
                kept.append(finding)
        self._last_suppressed = suppressed
        if not self._filtered:
            for suppression in suppressions:
                if not suppression.used:
                    codes = (
                        "all rules"
                        if suppression.codes is None
                        else ", ".join(sorted(suppression.codes))
                    )
                    kept.append(
                        Finding(
                            ctx.path,
                            suppression.line,
                            SUPPRESSION_RULE,
                            f"unused suppression ({codes}): nothing on this "
                            f"line triggers it — remove the noqa",
                        )
                    )
        return [finding for finding in kept if self._selected(finding.rule)]

    def _selected(self, code: str) -> bool:
        if any(code.startswith(prefix) for prefix in self._ignore):
            return False
        if self._select is None:
            return True
        return any(code.startswith(prefix) for prefix in self._select)

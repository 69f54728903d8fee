"""``failure-taxonomy``: raises on evaluation paths must carry a kind.

PR 9's resilience layer keys retryability, wire encoding and quarantine
policy off a closed set of failure kinds (``resilience/failures.py``), not
off exception types.  That only works if exceptions crossing the
evaluation stack are classifiable: they either self-classify via a
``failure_kind``/``kind`` attribute, belong to a type
``classify_exception`` maps (``TimeoutError`` -> timeout, ``OSError`` ->
worker_crash), or are re-raises of something already in flight.

Inside the scoped paths (eval / spice / service / resilience) every
``raise`` must therefore be one of:

* a bare ``raise`` (re-raise in an except block),
* ``raise err`` of a bound name (re-raising a caught/stored exception),
* a constructor call of a *classified* exception type — one that defines
  a ``failure_kind`` class attribute, assigns ``self.failure_kind`` or
  ``self.kind`` in ``__init__``, or subclasses such a type (collected
  project-wide, so service-layer subclasses of ``EvaluationError`` count),
* a type ``classify_exception`` already understands (``TimeoutError``,
  ``OSError`` and subclasses named here), or ``NotImplementedError`` /
  ``AssertionError`` (programmer errors, not evaluation failures),
* a construction-time validation raise: ``ValueError`` / ``TypeError`` /
  ``KeyError`` inside ``__init__`` / ``__post_init__`` / a classmethod
  constructor — those fire before any evaluation exists to classify.

Everything else is a finding: either give the exception a kind, or
pragma/baseline it with a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.framework import (
    Checker,
    Finding,
    Project,
    SourceFile,
    register_checker,
)

#: Path fragments the rule applies to: everything an evaluation flows
#: through between a strategy's ask() and its tell().
SCOPED_PATHS = (
    "repro/eval/",
    "repro/spice/",
    "repro/service/",
    "repro/resilience/",
)

#: Exception types ``classify_exception`` maps by isinstance, plus
#: programmer-error types that are bugs (not evaluation failures) by
#: definition.
ALLOWED_TYPES = frozenset(
    {
        "TimeoutError",
        "OSError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionRefusedError",
        "BrokenPipeError",
        "InterruptedError",
        "NotImplementedError",
        "AssertionError",
        "StopAsyncIteration",
        "StopIteration",
    }
)

#: Validation raises tolerated in constructor-shaped functions.
VALIDATION_TYPES = frozenset({"ValueError", "TypeError", "KeyError"})

#: Function names treated as construction/validation context.
CONSTRUCTOR_FUNCTIONS = frozenset(
    {"__init__", "__post_init__", "__new__", "from_dict"}
)


def in_scope(path: str) -> bool:
    return any(fragment in path for fragment in SCOPED_PATHS)


def _exception_name(node: ast.expr) -> Optional[str]:
    """Class name of ``raise X(...)`` / ``raise X`` (final attr for dotted)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_classified(project: Project) -> Set[str]:
    """Names of exception classes that carry a failure kind, project-wide."""
    classified: Set[str] = set()
    bases: Dict[str, Set[str]] = {}
    for source in project:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name] = {
                name
                for base in node.bases
                if (name := _exception_name(base)) is not None
            }
            for statement in node.body:
                # Class attribute: failure_kind = "timeout"
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == "failure_kind"
                        ):
                            classified.add(node.name)
                elif isinstance(statement, ast.AnnAssign):
                    if (
                        isinstance(statement.target, ast.Name)
                        and statement.target.id == "failure_kind"
                    ):
                        classified.add(node.name)
                # self.failure_kind / self.kind assigned in __init__.
                elif (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == "__init__"
                ):
                    for sub in ast.walk(statement):
                        if (
                            isinstance(sub, ast.Assign)
                            and any(
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                and t.attr in ("failure_kind", "kind")
                                for t in sub.targets
                            )
                        ):
                            classified.add(node.name)
    # Propagate through (name-matched) inheritance to a fixpoint.
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name not in classified and parents & classified:
                classified.add(name)
                changed = True
    return classified


@register_checker
class FailureTaxonomyChecker(Checker):
    name = "failure-taxonomy"
    description = (
        "raises on eval/spice/service/resilience paths must re-raise or "
        "construct an exception carrying a failure kind"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        classified = _collect_classified(project)
        for source in project:
            if not in_scope(source.path):
                continue
            yield from self._check_file(source, classified)

    def _check_file(
        self, source: SourceFile, classified: Set[str]
    ) -> Iterable[Finding]:
        # Walk with enclosing-function context so validation raises inside
        # constructors can be exempted.
        stack: List[str] = []

        def visit(node: ast.AST) -> Iterable[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                stack.pop()
                return
            if isinstance(node, ast.Raise):
                finding = self._classify_raise(node, source, classified, stack)
                if finding is not None:
                    yield finding
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(source.tree)

    def _classify_raise(
        self,
        node: ast.Raise,
        source: SourceFile,
        classified: Set[str],
        stack: List[str],
    ) -> Optional[Finding]:
        if node.exc is None:
            return None  # bare re-raise
        if isinstance(node.exc, (ast.Name, ast.Subscript, ast.Attribute)):
            # Re-raise of a bound/stored exception (``raise err``,
            # ``raise box["error"]``, ``raise self._error``).
            return None
        name = _exception_name(node.exc)
        if name is None:
            # ``raise factory()`` and similar — cannot resolve; flag it.
            return self._finding(source, node, "<dynamic>")
        if name in classified or name in ALLOWED_TYPES:
            return None
        if name.endswith("Warning"):
            return None
        if name in VALIDATION_TYPES and (
            not stack or stack[-1] in CONSTRUCTOR_FUNCTIONS
        ):
            return None
        return self._finding(source, node, name)

    def _finding(
        self, source: SourceFile, node: ast.Raise, name: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=source.path,
            line=node.lineno,
            message=(
                f"raise {name} on an evaluation path carries no failure "
                "kind; raise a taxonomy exception (failure_kind attribute), "
                "re-raise the caught error, or justify with a pragma"
            ),
        )

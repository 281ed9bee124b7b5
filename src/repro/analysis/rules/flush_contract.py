"""Rule ``flush-contract``: no processing after a terminal flush.

The PR 2 contracts made ``flush()`` terminal on every stage that buffers
state — :class:`~repro.core.kslack.KSlackBuffer`,
:class:`~repro.core.synchronizer.Synchronizer`,
:class:`~repro.core.result_sorter.ResultSorter`, and
:class:`~repro.core.pipeline.QualityDrivenPipeline`, likewise the
partitioned pipeline and its :class:`~repro.parallel.ingest.PipelinedIngest`
feeder, whose ``submit`` takes bursts — because a stage reused after
flush silently mixes pre- and post-flush ordering contracts.  The
stages raise at runtime; this rule catches the pattern before it ever
runs.

The check is deliberately **flow-insensitive within one function** (per
the contract's own documentation): inside each function body, a call
``<target>.flush()`` followed on a later line by
``<target>.process(...)`` / ``<target>.process_batch(...)`` /
``<target>.submit(...)`` / ``<target>.submit_batch(...)`` on the same
dotted receiver is flagged — unless the receiver is re-assigned in
between (a fresh instance is exactly the documented remedy).  Receivers
that are not plain dotted names (``self.kslacks[i]``) are not tracked;
loops that textually process before flushing are accepted noise the
pragma escape covers.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Tuple

from ..astutils import dotted_name
from ..core import Finding, ModuleIndex, Rule, register

#: Method names that feed new work into a flushed stage.
PROCESS_METHODS = ("process", "process_batch", "submit", "submit_batch")


@register
class FlushContractRule(Rule):
    name = "flush-contract"
    summary = (
        "within a function, a receiver must not process/submit after its "
        "terminal flush() (re-assignment between the two resets tracking)"
    )

    def check(self, index: ModuleIndex) -> Iterable[Finding]:
        findings: List[Finding] = []
        for module in index.modules:
            for node in module.walk():
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._check_function(module.path, node, findings)
        return findings

    def _check_function(
        self, path: str, function: ast.AST, findings: List[Finding]
    ) -> None:
        flushes: Dict[str, int] = {}
        processes: List[Tuple[str, int, int, str]] = []
        assigns: Dict[str, List[int]] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                target = dotted_name(node.func.value)
                if target is None:
                    continue
                if node.func.attr == "flush" and not node.args:
                    line = node.lineno
                    if target not in flushes or line < flushes[target]:
                        flushes[target] = line
                elif node.func.attr in PROCESS_METHODS:
                    processes.append(
                        (target, node.lineno, node.col_offset, node.func.attr)
                    )
            elif isinstance(node, ast.Assign):
                for target_node in node.targets:
                    target = dotted_name(target_node)
                    if target is not None:
                        assigns.setdefault(target, []).append(node.lineno)
        for target, line, col, attr in processes:
            flush_line = flushes.get(target)
            if flush_line is None or line <= flush_line:
                continue
            if any(
                flush_line < assign_line <= line
                for assign_line in assigns.get(target, [])
            ):
                continue
            findings.append(
                Finding(
                    self.name,
                    path,
                    line,
                    col,
                    f"{target}.{attr}() after {target}.flush() on line "
                    f"{flush_line}; flush is terminal — create a new "
                    "instance instead of reusing the flushed stage",
                )
            )

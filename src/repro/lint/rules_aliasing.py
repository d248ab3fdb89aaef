"""R5 — no in-place mutation of cached topology/view arrays.

``AgreementTopology.coefficients()``, ``CapacityView.u()`` /
``.capacities()``, ``Bank.capacity_view()`` and the ``S``/``A``/``V``
matrices all return arrays *shared* through version-keyed caches.  A
caller that writes into one corrupts every other holder of the cache
entry — silently, because the cache key (the bank version) has not
changed.  The runtime counterpart freezes these arrays
(``REPRO_SANITIZE`` docs), but a frozen array fails at *run* time; this
rule fails at *review* time.

The analysis is a per-function, order-respecting taint pass: locals
assigned from a cache-returning call (or from a ``.S``/``.A``/``.V``
attribute read) are tainted; ``.copy()`` launders; stores into tainted
arrays, in-place numpy methods (``fill``/``sort``/...), ``out=`` aimed
at a tainted array, and mutating ``np.*`` helpers (``fill_diagonal``,
``copyto``, ...) are violations.  Freezing itself
(``x.flags.writeable = False`` / ``x.setflags(write=False)``) is the
sanctioned operation and stays exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .astutil import terminal_name
from .engine import LintModule, Rule
from .findings import Finding

#: calls whose result aliases a shared cache entry
CACHE_FUNCS = frozenset(
    {"topology", "capacity_view", "base_capacities", "coefficients",
     "capacities", "u", "flows"}
)

#: attribute reads aliasing shared topology/view matrices
CACHE_ATTRS = frozenset({"S", "A", "V"})

#: ndarray methods that mutate in place
INPLACE_METHODS = frozenset(
    {"fill", "sort", "resize", "put", "itemset", "partition", "byteswap"}
)

#: numpy module helpers that mutate their first argument
MUTATING_NP_FUNCS = frozenset({"fill_diagonal", "copyto", "place", "putmask"})

#: calls that return an owned (fresh) array, clearing taint
_LAUNDERING = frozenset({"copy", "astype", "tolist"})


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _is_freeze_target(node: ast.expr) -> bool:
    """``x.flags.writeable`` — the sanctioned freeze, not a data write."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "writeable"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "flags"
    )


class _FunctionScanner:
    def __init__(self, rule: "CacheAliasingRule", module: LintModule) -> None:
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        self.tainted: dict[str, str] = {}  # name -> provenance label

    # -- taint sources ------------------------------------------------------

    def _provenance(self, value: ast.expr) -> str | None:
        """Why the value aliases a cache (None if it does not)."""
        if isinstance(value, ast.Call):
            name = terminal_name(value.func)
            if name in _LAUNDERING:
                return None
            if name in CACHE_FUNCS:
                return f"{name}()"
            return None
        if isinstance(value, ast.Attribute) and value.attr in CACHE_ATTRS:
            return f".{value.attr}"
        if isinstance(value, ast.Name):
            return self.tainted.get(value.id)
        return None

    def _root_provenance(self, node: ast.expr) -> str | None:
        """Provenance of the array a store/call target reaches into."""
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute) and node.attr in ("flags",):
                node = node.value
                continue
            node = node.value
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in CACHE_FUNCS:
                return f"{name}()"
        return None

    # -- violations ---------------------------------------------------------

    def _flag(self, node: ast.AST, provenance: str, what: str) -> None:
        self.findings.append(
            self.module.finding(
                self.rule,
                node,
                f"{what} mutates an array aliased from the shared "
                f"topology/view cache ({provenance}); take a .copy() first",
            )
        )

    def _check_store(self, target: ast.expr) -> None:
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        if _is_freeze_target(target):
            return
        prov = self._root_provenance(target)
        if prov is not None:
            self._flag(target, prov, "in-place store")

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in INPLACE_METHODS:
                prov = self._root_provenance(func.value)
                if prov is not None:
                    self._flag(call, prov, f".{func.attr}()")
            if func.attr in MUTATING_NP_FUNCS and call.args:
                prov = self._provenance(call.args[0]) or self._root_provenance(
                    call.args[0]
                )
                if prov is not None:
                    self._flag(call, prov, f"np.{func.attr}()")
        for kw in call.keywords:
            if kw.arg == "out" and isinstance(kw.value, ast.Name):
                prov = self.tainted.get(kw.value.id)
                if prov is not None:
                    self._flag(call, prov, "out= argument")

    # -- traversal ----------------------------------------------------------

    def scan(self, fn: ast.FunctionDef) -> None:
        self._scan_body(fn.body)

    def _scan_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes get their own scanner
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                self._check_call(node)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_store(target)
            prov = self._provenance(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if prov is not None:
                        self.tainted[target.id] = prov
                    else:
                        self.tainted.pop(target.id, None)
        elif isinstance(stmt, ast.AnnAssign):
            self._check_store(stmt.target)
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                prov = self._provenance(stmt.value)
                if prov is not None:
                    self.tainted[stmt.target.id] = prov
                else:
                    self.tainted.pop(stmt.target.id, None)
        elif isinstance(stmt, ast.AugAssign):
            self._check_store(stmt.target)
            if isinstance(stmt.target, ast.Name) and stmt.target.id in self.tainted:
                # x += y rebinds for ndarrays in place: still a mutation
                self._flag(
                    stmt, self.tainted[stmt.target.id], "augmented assignment"
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._scan_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._scan_body(stmt.body)
            for handler in stmt.handlers:
                self._scan_body(handler.body)
            self._scan_body(stmt.orelse)
            self._scan_body(stmt.finalbody)


class CacheAliasingRule(Rule):
    id = "R5"
    name = "cache-aliasing"
    description = (
        "no in-place mutation of numpy arrays returned by topology()/"
        "capacity_view() caches (coefficients, u, capacities, S/A/V); "
        "copy before writing"
    )

    def check(self, module: LintModule) -> list[Finding]:
        findings: list[Finding] = []
        for fn in _functions(module.tree):
            scanner = _FunctionScanner(self, module)
            scanner.scan(fn)
            findings.extend(scanner.findings)
        return findings


__all__ = ["CacheAliasingRule", "CACHE_FUNCS", "INPLACE_METHODS"]

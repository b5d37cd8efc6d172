"""Context features: where a hunk lives, and what sits beneath it.

This module is the one definition of "where".  Outer features read the
hunk's context chain, the unchanged ancestors that ``extract_hunks``
found around its labeled roots, nearest first: the enclosing scope
(module/class/function sizes, function privacy) and the closest ancestor
node.  Inner features are plain occurrence counts of kinds and roles
below the hunk's labeled roots.  ``extract_context`` returns all of them
as one flat ``{feature: float}`` dict, and ``context_matrix`` lays such
dicts out as a dense hunk x feature table.  Every emitted feature maps onto
one of 17 descriptive categories via a versioned table shipped with the
package (checked for totality at test time).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from fixscope.diffing import DiffNode, Hunk
from fixscope.features import FeatureMatrix, FeatureVector, _direction, assemble_matrix
from fixscope.grammar import _packaged_table

logger = logging.getLogger(__name__)

__all__ = [
    "CATEGORIES",
    "ANCESTOR_KINDS",
    "SCOPED_FEATURES",
    "UnmappedFeatureError",
    "outer_scoped_features",
    "closest_ancestor_features",
    "inner_context_features",
    "extract_context",
    "context_matrix",
    "categorize",
    "category_table_checksum",
]

CATEGORY_RESOURCE = "context_categories_v1.txt"

CATEGORIES = (
    "Module Size", "Class Size", "Function Size", "Closest Definition",
    "Closest Exception", "Closest Iteration", "Closest Selection",
    "Closest Attribute", "Closest Call", "Closest Assign", "Closest Size",
    "Assign Operators", "Control Flow", "Data Containers", "Function",
    "Globals", "Special Operators",
)

# the closed set of closest-ancestor kinds carrying a one-hot feature
ANCESTOR_KINDS = (
    "For", "While", "If", "Assign", "ClassDef", "FunctionDef", "Module",
    "TryExcept", "TryFinally", "Attribute", "BinOp", "BoolOp", "Call",
    "Return", "Subscript",
)

SCOPED_FEATURES = (
    "ctx_Module_size",
    "ctx_ClassDef_body_size",
    "ctx_ClassDef_bases_size",
    "ctx_FunctionDef_args_size",
    "ctx_FunctionDef_body_size",
    "ctx_FunctionDef_private",
)

_CALL_ARG_ROLES = frozenset(
    {"Call-Args", "Call-Keywords", "Call-Starargs", "Call-Kwargs"})


class UnmappedFeatureError(KeyError):
    """A context feature missing from the category table."""


def _count_role(node: DiffNode, role: str) -> int:
    return sum(1 for child in node.children if child.role == role)


def outer_scoped_features(hunk: Hunk) -> dict[str, float]:
    """Sizes of the enclosing module/class/function scopes.

    Each scope kind is read from the nearest enclosing ancestor of that
    kind; fields for absent scopes stay 0.
    """
    out = {name: 0.0 for name in SCOPED_FEATURES}
    seen: set[str] = set()
    for node in hunk.context_chain:
        if node.kind == "FunctionDef" and "FunctionDef" not in seen:
            seen.add("FunctionDef")
            args = next((c for c in node.children if c.kind == "arguments"), None)
            out["ctx_FunctionDef_args_size"] = float(
                _count_role(args, "arguments-Args") if args is not None else 0)
            out["ctx_FunctionDef_body_size"] = float(_count_role(node, "FunctionDef-Body"))
            out["ctx_FunctionDef_private"] = 1.0 if node.text.startswith("_") else 0.0
        elif node.kind == "ClassDef" and "ClassDef" not in seen:
            seen.add("ClassDef")
            out["ctx_ClassDef_body_size"] = float(_count_role(node, "ClassDef-Body"))
            out["ctx_ClassDef_bases_size"] = float(_count_role(node, "ClassDef-Bases"))
        elif node.kind == "Module":
            out["ctx_Module_size"] = float(_count_role(node, "Module-Body"))
    return out


def _ancestor_size(node: DiffNode) -> int:
    # for calls the size reads as the argument count, not the callee
    if node.kind == "Call":
        return sum(1 for c in node.children if c.role in _CALL_ARG_ROLES)
    return len(node.children)


def closest_ancestor_features(hunk: Hunk) -> dict[str, float]:
    """One-hot over the closed ancestor-kind set, plus the ancestor size."""
    out = {f"ctx_including_{kind}": 0.0 for kind in ANCESTOR_KINDS}
    chosen: DiffNode | None = None
    skipped: list[str] = []
    for node in hunk.context_chain:
        if node.kind in ANCESTOR_KINDS:
            chosen = node
            break
        skipped.append(node.kind)
    if chosen is None:  # unreachable: Module always qualifies
        raise AssertionError("context chain always ends at Module")
    if skipped:
        logger.debug("hunk %s: closest ancestor %s mapped up past %s",
                    hunk.id, chosen.kind, "/".join(skipped))
    out[f"ctx_including_{chosen.kind}"] = 1.0
    out["ctx_including_node_size"] = float(_ancestor_size(chosen))
    return out


def inner_context_features(hunk: Hunk) -> dict[str, int]:
    """Occurrence counts of kinds and roles strictly below the labeled roots."""
    counts: dict[str, int] = {}
    for root in hunk.labeled_roots:
        direction = _direction(root.label)
        for node in root.walk():
            if node is root:
                continue
            for token in (node.kind, node.role):
                name = f"ctx_inner_{direction}_{token}_count"
                counts[name] = counts.get(name, 0) + 1
    return counts


def extract_context(hunk: Hunk) -> dict[str, float]:
    """Every context feature of one hunk, flattened to numbers: scoped,
    then closest-ancestor, then inner counts."""
    flat = outer_scoped_features(hunk)
    flat.update(closest_ancestor_features(hunk))
    inner = inner_context_features(hunk)
    flat.update({name: float(count) for name, count in inner.items()})
    return flat


def context_matrix(contexts: dict[str, dict[str, float]]) -> FeatureMatrix:
    """Hunk x context-feature table, rows in the order of ``contexts``
    (hunk id -> flat features); a feature a hunk lacks reads 0.0."""
    return assemble_matrix([FeatureVector(hunk_id, features)
                            for hunk_id, features in contexts.items()])


# --- category mapping --------------------------------------------------------


@dataclass(frozen=True)
class _CategoryTable:
    outer: dict[str, str]
    kinds: dict[str, str]
    roles: dict[str, str]
    checksum: str


def _parse_table(text: str, checksum: str) -> _CategoryTable:
    outer: dict[str, str] = {}
    kinds: dict[str, str] = {}
    roles: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        prefix, rest = line.split(" ", 1)
        key, category = rest.split("=", 1)
        target = {"outer": outer, "kind": kinds, "role": roles}[prefix]
        target[key] = category
    return _CategoryTable(outer=outer, kinds=kinds, roles=roles, checksum=checksum)


def _load_table() -> _CategoryTable:
    return _packaged_table(CATEGORY_RESOURCE, _parse_table)


def category_table_checksum() -> str:
    return _load_table().checksum


def categorize(feature: str) -> str:
    """Total map from a context feature name onto its category."""
    table = _load_table()
    if feature in table.outer:
        return table.outer[feature]
    if feature.startswith("ctx_inner_"):
        body = feature[len("ctx_inner_"):]
        for prefix in ("add_", "rem_"):
            if body.startswith(prefix):
                body = body[len(prefix):]
                break
        else:
            raise UnmappedFeatureError(feature)
        if not body.endswith("_count"):
            raise UnmappedFeatureError(feature)
        token = body[:-len("_count")]
        if token in table.kinds:
            return table.kinds[token]
        if token in table.roles:
            return table.roles[token]
    raise UnmappedFeatureError(feature)

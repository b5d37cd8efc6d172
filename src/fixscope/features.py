"""Weighted change-feature vectors and the dataset matrix.

Every labeled node in a hunk feeds two sparse features:

* a node-type feature ``<add|rem>_<kind>`` accumulating
  ``w_type * r**(-level)``, and
* a role feature ``<add|rem>_<role>_<kind>`` accumulating
  ``w_role * r**(-level) * c``,

where ``level`` is the node's depth measured from the root of its labeled
subtree (each labeled root of a multi-root hunk restarts at level 0).  The
default weights keep feature values integral for all node-type features up
to level 15 and all role features up to level 14; deeper nodes still
accumulate, with a warning, since the weighting assumes shallow hunks.
Where ``r**level`` overflows a float (past level 308 at ``r=10``), the
node's terms underflow to 0.0 and add nothing.  Such levels are reached:
a labeled subtree may be up to ``fixscope.diffing.MAX_HUNK_DEPTH`` (400)
levels high.  ``r`` must be at least 1, so a weight never grows with
depth.

``assemble_matrix`` is the one builder of a dense hunk x feature table:
the feature matrix here, and the context tables that
``fixscope.context.context_matrix`` builds for the features and stats
stages.  It takes a column for every name a vector holds, in
lexicographic order.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from fixscope.diffing import ChangeLabel, DiffNode, Hunk

logger = logging.getLogger(__name__)

__all__ = [
    "WeightConfig",
    "FeatureVector",
    "FeatureMatrix",
    "DuplicateHunkIdError",
    "hunk_feature_vector",
    "assemble_matrix",
]

MAX_WEIGHTED_LEVEL = 15


class DuplicateHunkIdError(ValueError):
    """Two vectors with the same hunk id in one matrix."""


@dataclass(frozen=True)
class WeightConfig:
    """Accumulation weights: all finite and strictly positive, and ``r >= 1``."""

    w_type: float = 1e15
    w_role: float = 1e15
    r: float = 10.0
    c: float = 0.1

    def __post_init__(self):
        for name in ("w_type", "w_role", "r", "c"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        for name in ("w_type", "w_role", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.r >= 1:
            # below 1, deeper nodes would weigh more, and r**level would
            # underflow to 0.0 on a deep enough chain
            raise ValueError("r must be at least 1, so weights never grow with depth")


@dataclass
class FeatureVector:
    """Sparse map from feature name to accumulated weight for one hunk."""

    hunk_id: str
    entries: dict[str, float] = field(default_factory=dict)

    def add(self, feature: str, value: float):
        if value != 0.0:
            self.entries[feature] = self.entries.get(feature, 0.0) + value


@dataclass
class FeatureMatrix:
    """Dense grid of vectors: rows in input order, columns lexicographic."""

    hunk_ids: list[str]
    feature_names: list[str]
    values: np.ndarray  # shape (len(hunk_ids), len(feature_names))


def _direction(label: ChangeLabel) -> str:
    return "add" if label is ChangeLabel.PLUS else "rem"


def hunk_feature_vector(hunk: Hunk, weights: WeightConfig | None = None) -> FeatureVector:
    """Accumulate the type/role features over every labeled node of a hunk."""
    weights = weights or WeightConfig()
    vector = FeatureVector(hunk_id=hunk.id)
    w_role_scaled = weights.w_role * weights.c
    deep = False
    for root in hunk.labeled_roots:
        direction = _direction(root.label)
        stack: list[tuple[DiffNode, int]] = [(root, 0)]
        while stack:
            node, level = stack.pop()
            if level > MAX_WEIGHTED_LEVEL:
                deep = True
            try:
                scale = weights.r ** level
            except OverflowError:
                scale = math.inf  # the weight underflows to 0.0 this deep
            vector.add(f"{direction}_{node.kind}", weights.w_type / scale)
            if node.role is not None:
                vector.add(f"{direction}_{node.role}_{node.kind}", w_role_scaled / scale)
            for child in node.children:
                stack.append((child, level + 1))
    if deep:
        logger.warning(
            "hunk %s exceeds the level-%d weighting assumption; deeper nodes "
            "still accumulate", hunk.id, MAX_WEIGHTED_LEVEL)
    return vector


def assemble_matrix(vectors: list[FeatureVector]) -> FeatureMatrix:
    """Union the vectors into a dense matrix with a column for every name
    any vector holds; a name a vector lacks reads 0.0."""
    seen: set[str] = set()
    for vec in vectors:
        if vec.hunk_id in seen:
            raise DuplicateHunkIdError(vec.hunk_id)
        seen.add(vec.hunk_id)
    names = sorted({name for vec in vectors for name in vec.entries})
    index = {name: i for i, name in enumerate(names)}
    grid = np.zeros((len(vectors), len(names)), dtype=np.float64)
    for row, vec in zip(grid, vectors):
        for name, value in vec.entries.items():
            row[index[name]] = value
    return FeatureMatrix(
        hunk_ids=[v.hunk_id for v in vectors],
        feature_names=names,
        values=grid,
    )


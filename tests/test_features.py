"""Weighted feature accumulation and matrix assembly."""

from __future__ import annotations

import pytest

from fixscope.diffing import ChangeLabel, DiffNode, Hunk
from fixscope.features import (
    DuplicateHunkIdError,
    FeatureVector,
    WeightConfig,
    assemble_matrix,
    hunk_feature_vector,
)
from fixscope.grammar import SourceSpan
from fixscope.pipeline import _csv, _matrix_rows

from conftest import single_hunk

ILLUSTRATION = WeightConfig(w_type=1e3, w_role=1e3, r=10.0, c=0.1)


def node(kind, role, label=ChangeLabel.PLUS, children=(), line=1):
    return DiffNode(kind=kind, role=role, text="", label=label,
                    span=SourceSpan(line, 0, line, 0),
                    eff_start=line, eff_end=line, children=list(children))


def hunk_of(*roots):
    return Hunk(id="h", labeled_roots=tuple(roots), context_chain=(),
                line_window=SourceSpan(1, 0, 1, 0))


class TestAccumulation:
    def test_nested_if_illustration_weights(self):
        # an added `if` (in an existing if's body) wrapping another `if`:
        # outer node scores at full weight, the nested one a factor r lower,
        # and role features sit a factor 1/c below their node features
        inner = node("If", "If-Body", children=[node("Name", "If-Test")])
        outer = node("If", "If-Body", children=[node("Name", "If-Test"), inner])
        vec = hunk_feature_vector(hunk_of(outer), ILLUSTRATION)
        assert vec.entries["add_If"] == 1000.0 + 100.0
        assert vec.entries["add_If-Body_If"] == 100.0 + 10.0
        # per-contribution check: the same outer if without the nested one
        alone = node("If", "If-Body", children=[node("Name", "If-Test")])
        vec_alone = hunk_feature_vector(hunk_of(alone), ILLUSTRATION)
        assert vec_alone.entries["add_If"] == 1000.0
        assert vec_alone.entries["add_If-Body_If"] == 100.0

    def test_single_added_name_with_defaults(self):
        vec = hunk_feature_vector(hunk_of(node("Name", "Assign-Targets")))
        assert vec.entries["add_Name"] == 1e15
        assert vec.entries["add_Assign-Targets_Name"] == 1e14

    def test_assign_with_two_leaves_defaults(self):
        # hand-evaluated: root level 0 at 1e15/1e14, leaves level 1 at
        # 1e14/1e13
        root = node("Assign", "Module-Body", children=[
            node("Name", "Assign-Targets"), node("Num", "Assign-Value")])
        vec = hunk_feature_vector(hunk_of(root))
        assert vec.entries["add_Assign"] == 1e15
        assert vec.entries["add_Name"] == 1e14
        assert vec.entries["add_Num"] == 1e14
        assert vec.entries["add_Module-Body_Assign"] == 1e14
        assert vec.entries["add_Assign-Targets_Name"] == 1e13
        assert vec.entries["add_Assign-Value_Num"] == 1e13

    def test_minus_nodes_feed_rem_features(self):
        vec = hunk_feature_vector(hunk_of(node("Name", "Assign-Targets",
                                               label=ChangeLabel.MINUS)))
        assert set(vec.entries) == {"rem_Name", "rem_Assign-Targets_Name"}

    def test_direction_separation(self):
        root = node("Assign", "Module-Body", children=[node("Name", "Assign-Targets")])
        vec = hunk_feature_vector(hunk_of(root))
        assert not any(name.startswith("rem_") for name in vec.entries)

    def test_scale_law(self):
        root = node("Assign", "Module-Body", children=[node("Name", "Assign-Targets")])
        base = hunk_feature_vector(hunk_of(root), WeightConfig(w_type=1e3, w_role=1e3))
        scaled = hunk_feature_vector(hunk_of(root), WeightConfig(w_type=7e3, w_role=1e3))
        type_features = ("add_Assign", "add_Name")
        for name, value in base.entries.items():
            factor = 7 if name in type_features else 1
            assert scaled.entries[name] == pytest.approx(value * factor, rel=1e-12)

    def test_depth_law(self):
        # wrapping the whole hunk under one more root divides every old
        # contribution by r
        leaf = node("Name", "If-Test")
        base = hunk_feature_vector(hunk_of(node("If", "If-Body", children=[leaf])),
                                   ILLUSTRATION)
        wrapped_leaf = node("Name", "If-Test")
        inner_if = node("If", "If-Body", children=[wrapped_leaf])
        wrapper = node("While", "If-Body", children=[inner_if])
        deeper = hunk_feature_vector(hunk_of(wrapper), ILLUSTRATION)
        for name, value in base.entries.items():
            assert deeper.entries[name] == pytest.approx(value / 10.0, rel=1e-12)

    def test_monotone_accumulation(self):
        one = hunk_of(node("Name", "Assign-Targets"))
        two = hunk_of(node("Name", "Assign-Targets"), node("Num", "Assign-Value", line=2))
        vec_one = hunk_feature_vector(one)
        vec_two = hunk_feature_vector(two)
        for name, value in vec_one.entries.items():
            assert vec_two.entries[name] >= value

    def test_levels_restart_at_each_labeled_root(self):
        # two labeled roots: both score at level 0
        a = node("Name", "Assign-Targets", line=1)
        b = node("Name", "Assign-Targets", line=2)
        vec = hunk_feature_vector(hunk_of(a, b))
        assert vec.entries["add_Name"] == 2e15


class TestIntegerExactness:
    def chain(self, depth):
        tip = node("Name", "If-Test")
        current = tip
        for _ in range(depth):
            current = node("If", "If-Body", children=[current])
        return current

    def test_defaults_exact_integers_to_height_14(self):
        for height in (1, 5, 14):
            vec = hunk_feature_vector(hunk_of(self.chain(height)))
            for name, value in vec.entries.items():
                assert value == int(value), (height, name, value)

    def test_type_features_exact_at_height_15(self):
        vec = hunk_feature_vector(hunk_of(self.chain(15)))
        assert vec.entries["add_If"] == int(vec.entries["add_If"])
        assert vec.entries["add_Name"] == 1.0  # level 15: 1e15 / 10**15
        # the deepest role feature is exactly one order below integrality
        assert vec.entries["add_If-Test_Name"] == 0.1


    def test_terms_past_the_float_range_contribute_zero(self):
        # 10.0 ** level overflows past level 308; those terms underflow to
        # 0.0 while every shallower one keeps its exact value
        weights = WeightConfig()
        vec = hunk_feature_vector(hunk_of(self.chain(400)), weights)
        node_sum = role_sum = 0.0
        for level in range(309):
            node_sum += weights.w_type / 10.0 ** level
            role_sum += weights.w_role * weights.c / 10.0 ** level
        assert vec.entries["add_If"] == node_sum
        assert vec.entries["add_If-Body_If"] == role_sum
        assert "add_Name" not in vec.entries  # its one term sits at level 400


class TestFromRealDiffs:
    def test_added_statement_from_source(self):
        before = "def f():\n    x = 1\n"
        after = "def f():\n    x = 1\n    y = f2(x)\n"
        hunk = single_hunk(before, after)
        vec = hunk_feature_vector(hunk, ILLUSTRATION)
        assert vec.entries["add_Assign"] == 1000.0
        assert vec.entries["add_FunctionDef-Body_Assign"] == 100.0
        assert vec.entries["add_Call"] == 100.0
        assert vec.entries["add_Name"] == 100.0 + 10.0 + 10.0  # y, f2, x


class TestAssembleMatrix:
    def test_union_of_columns(self):
        a = FeatureVector("h1", {"add_If": 1.0, "shared": 2.0})
        b = FeatureVector("h2", {"rem_Call": 3.0, "shared": 4.0})
        matrix = assemble_matrix([a, b])
        assert matrix.feature_names == ["add_If", "rem_Call", "shared"]
        assert matrix.values.shape == (2, 3)
        assert matrix.values[0].tolist() == [1.0, 0.0, 2.0]
        assert matrix.values[1].tolist() == [0.0, 3.0, 4.0]

    def test_zero_entries_keep_their_column(self):
        # every name a vector holds is a column; hunk_feature_vector never
        # stores a 0.0, while context vectors hold their 0.0 features
        a = FeatureVector("h1", {"add_If": 1.0, "ghost": 0.0})
        matrix = assemble_matrix([a])
        assert matrix.feature_names == ["add_If", "ghost"]
        assert matrix.values.tolist() == [[1.0, 0.0]]

    def test_duplicate_hunk_id(self):
        a = FeatureVector("h1", {"x": 1.0})
        with pytest.raises(DuplicateHunkIdError):
            assemble_matrix([a, FeatureVector("h1", {"y": 1.0})])

    def test_row_order_is_input_order(self):
        vecs = [FeatureVector(f"h{i}", {"f": float(i + 1)}) for i in range(4)]
        matrix = assemble_matrix(vecs)
        assert matrix.hunk_ids == ["h0", "h1", "h2", "h3"]
        assert matrix.values[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_csv_shape(self):
        matrix = assemble_matrix([FeatureVector("h1", {"b": 1.0, "a": 2.0})])
        text = _csv(_matrix_rows(matrix))
        lines = text.strip().splitlines()
        assert lines[0] == "hunk_id,a,b"
        assert lines[1].startswith("h1,2.0,1.0")


class TestWeightConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightConfig(w_type=0)
        with pytest.raises(ValueError):
            WeightConfig(c=-0.1)

    def test_rejects_weights_that_grow_with_depth(self):
        # at r = 0.5, r**level underflows to 0.0 on an 1100-deep chain
        chain = node("Name", "If-Test")
        for _ in range(1100):
            chain = node("If", "If-Body", children=[chain])
        with pytest.raises(ValueError, match="at least 1"):
            hunk_feature_vector(hunk_of(chain), WeightConfig(r=0.5))
        flat = hunk_feature_vector(hunk_of(chain), WeightConfig(w_type=1.0, w_role=1.0, r=1.0))
        assert flat.entries["add_If"] == 1100.0

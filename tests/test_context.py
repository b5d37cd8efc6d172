"""Outer/inner context extraction and category mapping."""

from __future__ import annotations

import textwrap

import pytest

from fixscope.context import (
    ANCESTOR_KINDS,
    CATEGORIES,
    SCOPED_FEATURES,
    UnmappedFeatureError,
    categorize,
    category_table_checksum,
    closest_ancestor_features,
    context_matrix,
    extract_context,
    inner_context_features,
    outer_scoped_features,
)
from fixscope.diffing import ChangeLabel
from fixscope.grammar import load_taxonomy

from conftest import single_hunk


class TestOuterScopedFeatures:
    def test_module_level_hunk(self):
        base = [f"name_{i} = {i}" for i in range(11)]
        before = "\n".join(base) + "\n"
        after = "\n".join(base + ["added = 1"]) + "\n"
        hunk = single_hunk(before, after)
        scoped = outer_scoped_features(hunk)
        assert scoped["ctx_Module_size"] == 12.0
        assert scoped["ctx_FunctionDef_body_size"] == 0.0
        assert scoped["ctx_ClassDef_body_size"] == 0.0
        assert scoped["ctx_FunctionDef_private"] == 0.0

    def test_private_function_sizes(self):
        before = textwrap.dedent(
            """
            def _go(a, b):
                s1 = 1
                s2 = 2
                s3 = 3
                s4 = 4
            """
        )
        after = textwrap.dedent(
            """
            def _go(a, b):
                s1 = 1
                s2 = 2
                s3 = 3
                s4 = 4
                s5 = do(a)
            """
        )
        scoped = outer_scoped_features(single_hunk(before, after))
        assert scoped["ctx_FunctionDef_args_size"] == 2.0
        assert scoped["ctx_FunctionDef_body_size"] == 5.0
        assert scoped["ctx_FunctionDef_private"] == 1.0

    def test_method_populates_class_and_function(self):
        before = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    x = 0
            """
        )
        after = textwrap.dedent(
            """
            class Foo(object):
                def foo_fun(self):
                    if cond:
                        x = 0
            """
        )
        scoped = outer_scoped_features(single_hunk(before, after))
        assert scoped["ctx_FunctionDef_body_size"] > 0
        assert scoped["ctx_ClassDef_body_size"] > 0
        assert scoped["ctx_ClassDef_bases_size"] == 1.0
        assert scoped["ctx_Module_size"] == 1.0


class TestClosestAncestorFeatures:
    def test_one_hot_inside_if(self):
        before = "if flag:\n    a = 1\n"
        after = "if flag:\n    a = 1\n    b = 2\n"
        feats = closest_ancestor_features(single_hunk(before, after))
        assert feats["ctx_including_If"] == 1.0
        hot = [k for k, v in feats.items()
               if k != "ctx_including_node_size" and v == 1.0]
        assert hot == ["ctx_including_If"]

    def test_keyword_addition_counts_call_arguments(self):
        before = "r = post(url, payload)\n"
        after = "r = post(url, payload, timeout=30)\n"
        feats = closest_ancestor_features(single_hunk(before, after))
        assert feats["ctx_including_Call"] == 1.0
        assert feats["ctx_including_node_size"] == 3.0

    def test_unlisted_ancestor_maps_up_the_chain(self):
        before = textwrap.dedent(
            """
            table = {'ip_address': ip,
                     'mac_address': mac}
            """
        )
        after = textwrap.dedent(
            """
            table = {'ip_address': ip,
                     'mac_address': mac,
                     'nud_state': state}
            """
        )
        feats = closest_ancestor_features(single_hunk(before, after))
        # the Dict ancestor is outside the one-hot set; Assign is nearest listed
        assert feats["ctx_including_Assign"] == 1.0

    def test_one_hot_property_across_shapes(self):
        cases = [
            ("x = 1\n", "x = 1\ny = 2\n"),
            ("for i in it:\n    a = 1\n", "for i in it:\n    a = 1\n    b = 2\n"),
            ("while go():\n    a = 1\n", "while go():\n    a = 1\n    b = 2\n"),
            ("try:\n    a = 1\nexcept E:\n    pass\n",
             "try:\n    a = 1\n    b = 2\nexcept E:\n    pass\n"),
        ]
        for before, after in cases:
            feats = closest_ancestor_features(single_hunk(before, after))
            hot = [k for k, v in feats.items()
                   if k.startswith("ctx_including_") and k != "ctx_including_node_size"
                   and v == 1.0]
            assert len(hot) == 1, (before, hot)


class TestInnerContextFeatures:
    def test_plus_if_wrapping_three_calls(self):
        before = "first(a)\nsecond(b)\nthird(c)\n"
        after = "if flag:\n    first(a)\n    second(b)\n    third(c)\n"
        hunk = single_hunk(before, after)
        inner = inner_context_features(hunk)
        assert inner["ctx_inner_add_Call_count"] == 3
        assert inner["ctx_inner_rem_Call_count"] == 3

    def test_single_leaf_has_empty_inner_vector(self):
        before = "x = compute(a)\n"
        after = "x = compute(b)\n"
        hunk = single_hunk(before, after)
        assert inner_context_features(hunk) == {}

    def test_try_except_wrap_counts(self):
        before = "self.client.destroy(path)\n"
        after = textwrap.dedent(
            """
            try:
                self.client.destroy(path)
            except NaApiError as e:
                if e.code == NOT_FOUND:
                    LOG.warning('gone')
                else:
                    raise exception.DriverError(msg)
            """
        )
        inner = inner_context_features(single_hunk(before, after))
        assert inner["ctx_inner_add_Call_count"] >= 2
        assert inner["ctx_inner_add_Raise_count"] == 1
        assert inner["ctx_inner_add_Attribute_count"] >= 2

    def test_count_consistency(self):
        before = "def f():\n    x = 1\n"
        after = "def f():\n    x = 1\n    if a:\n        y = g(b, c)\n"
        hunk = single_hunk(before, after)
        inner = inner_context_features(hunk)
        tax = load_taxonomy()
        plus_below = sum(
            1 for root in hunk.labeled_roots
            if root.label is ChangeLabel.PLUS
            for n in root.walk() if n is not root)
        kind_total = sum(v for k, v in inner.items()
                         if k.startswith("ctx_inner_add_")
                         and k[len("ctx_inner_add_"):-len("_count")] in tax.kinds)
        role_total = sum(v for k, v in inner.items()
                         if k.startswith("ctx_inner_add_")
                         and k[len("ctx_inner_add_"):-len("_count")] in tax.role_names)
        assert kind_total == plus_below
        assert role_total == plus_below


class TestCategorize:
    def test_direct_name_matches(self):
        assert categorize("ctx_FunctionDef_body_size") == "Function Size"
        assert categorize("ctx_Module_size") == "Module Size"
        assert categorize("ctx_including_While") == "Closest Iteration"
        assert categorize("ctx_including_node_size") == "Closest Size"
        assert categorize("ctx_inner_add_Dict_count") == "Data Containers"
        assert categorize("ctx_inner_rem_AugAssign_count") == "Assign Operators"
        assert categorize("ctx_inner_add_Call-Args_count") == "Function"
        assert categorize("ctx_inner_add_Module-Body_count") == "Globals"
        assert categorize("ctx_inner_add_Return_count") == "Special Operators"

    def test_totality_over_emittable_features(self):
        tax = load_taxonomy()
        names = list(SCOPED_FEATURES)
        names += [f"ctx_including_{k}" for k in ANCESTOR_KINDS]
        names.append("ctx_including_node_size")
        for direction in ("add", "rem"):
            names += [f"ctx_inner_{direction}_{k}_count" for k in sorted(tax.kinds)]
            names += [f"ctx_inner_{direction}_{r}_count" for r in sorted(tax.role_names)]
        for name in names:
            assert categorize(name) in CATEGORIES, name

    def test_unmapped_feature_raises(self):
        with pytest.raises(UnmappedFeatureError):
            categorize("ctx_inner_add_Bogus_count")
        with pytest.raises(UnmappedFeatureError):
            categorize("weird_feature")

    def test_seventeen_categories(self):
        assert len(CATEGORIES) == 17
        assert len(set(CATEGORIES)) == 17

    def test_table_checksum_stable(self):
        assert category_table_checksum() == category_table_checksum()


class TestExtractContext:
    def test_flattened_vector_is_numeric_and_categorized(self):
        before = "def f(a):\n    x = 1\n"
        after = "def f(a):\n    x = 1\n    y = {'k': v}\n"
        flat = extract_context(single_hunk(before, after))
        assert flat["ctx_inner_add_Dict_count"] == 1.0
        for name, value in flat.items():
            assert isinstance(value, float)
            assert categorize(name) in CATEGORIES


class TestContextMatrix:
    def test_every_held_feature_is_a_column(self):
        matrix = context_matrix({
            "h2": {"ctx_Module_size": 3.0, "ctx_including_If": 0.0},
            "h1": {"ctx_Module_size": 1.0, "ctx_inner_add_Dict_count": 2.0},
        })
        assert matrix.hunk_ids == ["h2", "h1"]
        assert matrix.feature_names == [
            "ctx_Module_size", "ctx_including_If", "ctx_inner_add_Dict_count"]
        assert matrix.values.tolist() == [[3.0, 0.0, 0.0], [1.0, 0.0, 2.0]]

"""Property tests over generated edit scripts (hunk grouping rules, and a
diff tree that accounts for both versions)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from fixscope.diffing import ChangeLabel
from fixscope.grammar import parse_source

from conftest import diff_texts, labeled_roots


def unit_lines(index: int, shape: int) -> list[str]:
    """One statement unit; shapes vary between flat and nested lines."""
    if shape == 0:
        return [f"var_{index} = {index}"]
    if shape == 1:
        return [f"call_{index}(arg_{index})"]
    if shape == 2:
        return [f"if cond_{index}:", f"    body_{index} = {index}"]
    return [f"for item_{index} in seq_{index}:", f"    use_{index}(item_{index})"]


@st.composite
def edit_case(draw):
    """A base program plus an edit script applied to its unit list."""
    n_units = draw(st.integers(min_value=2, max_value=10))
    shapes = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n_units)]
    units = [unit_lines(i, shape) for i, shape in enumerate(shapes)]
    n_edits = draw(st.integers(min_value=1, max_value=4))
    edited = list(units)
    for edit_index in range(n_edits):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        fresh = unit_lines(100 + edit_index, draw(st.integers(min_value=0, max_value=3)))
        if op == "insert" or not edited:
            pos = draw(st.integers(min_value=0, max_value=len(edited)))
            edited.insert(pos, fresh)
        elif op == "delete":
            pos = draw(st.integers(min_value=0, max_value=len(edited) - 1))
            edited.pop(pos)
        else:
            pos = draw(st.integers(min_value=0, max_value=len(edited) - 1))
            edited[pos] = fresh
    before = "\n".join(line for unit in units for line in unit) + "\n"
    after = "\n".join(line for unit in edited for line in unit) + "\n"
    return before, after


@st.composite
def moved_and_renamed_case(draw):
    """Calls moved among sibling ``if`` blocks that draw from one shared
    pool, plus own-text edits that leave a multi-line node's other lines
    alone: def and class names, an import module, an attribute and a
    keyword name."""
    pool = [f"f{i}({i})" for i in range(4)]

    def program():
        names = {part: draw(st.sampled_from(["a", "b"]))
                 for part in ("def", "class", "module", "attr", "kw")}
        lines = [f"from mod_{names['module']} import (x,", "    y)",
                 f"class C_{names['class']}:",
                 f"    def m_{names['def']}(self):"]
        for block in range(3):
            calls = draw(st.lists(st.sampled_from(pool), max_size=4))
            lines.append(f"        if c{block}:")
            lines += [f"            {call}" for call in calls] or ["            pass"]
        lines += ["        obj(", "            1,", f"            2).attr_{names['attr']}",
                  f"        g(kw_{names['kw']}=(", "            1,", "            2))"]
        return "\n".join(lines) + "\n"

    return program(), program()


def shape(node, dropped=None):
    """``(kind, role, text, sorted children)`` of the tree under ``node``,
    without the subtrees labeled ``dropped``."""
    return (node.kind, node.role, node.text,
            tuple(sorted(shape(child, dropped) for child in node.children
                         if dropped is None or child.label is not dropped)))


def fingerprints(nodes):
    return sorted(shape(n) for n in nodes)


def assert_accounts_for_both_versions(enhanced, before_text, after_text):
    """Dropping the Plus subtrees gives the before tree, and dropping the
    Minus subtrees gives the after tree."""
    assert shape(enhanced.root, ChangeLabel.PLUS) == shape(parse_source(before_text))
    assert shape(enhanced.root, ChangeLabel.MINUS) == shape(parse_source(after_text))


def assert_swap_symmetry(before, after):
    """Swapping the two versions swaps the Plus and Minus subtrees."""
    forward = diff_texts(before, after)
    backward = diff_texts(after, before)

    def collect(enhanced, label):
        return [n for n in enhanced.root.walk() if n.label is label]

    assert fingerprints(collect(forward, ChangeLabel.PLUS)) == \
        fingerprints(collect(backward, ChangeLabel.MINUS))
    assert fingerprints(collect(forward, ChangeLabel.MINUS)) == \
        fingerprints(collect(backward, ChangeLabel.PLUS))


class TestHunkRuleProperties:
    @given(edit_case())
    @settings(max_examples=60, deadline=None)
    def test_partition_every_labeled_root_in_exactly_one_hunk(self, case):
        before, after = case
        enhanced = diff_texts(before, after)
        from fixscope.diffing import extract_hunks
        hunks = extract_hunks(enhanced)
        roots = labeled_roots(enhanced)
        assigned = [root for hunk in hunks for root in hunk.labeled_roots]
        assert len(assigned) == len(roots)
        assert {id(r) for r in assigned} == {id(r) for r in roots}

    @given(edit_case())
    @settings(max_examples=60, deadline=None)
    def test_hunks_separated_by_more_than_three_lines(self, case):
        before, after = case
        enhanced = diff_texts(before, after)
        from fixscope.diffing import extract_hunks
        hunks = extract_hunks(enhanced)
        for first, second in zip(hunks, hunks[1:]):
            gap = min(
                rb.eff_start - ra.eff_end
                for ra in first.labeled_roots for rb in second.labeled_roots)
            assert gap > 3

    @given(edit_case())
    @settings(max_examples=60, deadline=None)
    def test_plus_minus_symmetry_under_swap(self, case):
        assert_swap_symmetry(*case)

    @given(edit_case())
    @settings(max_examples=60, deadline=None)
    def test_context_chains_contain_only_unchanged_nodes(self, case):
        before, after = case
        enhanced = diff_texts(before, after)
        from fixscope.diffing import extract_hunks
        for hunk in extract_hunks(enhanced):
            assert hunk.context_chain, hunk.id
            assert hunk.context_chain[-1].kind == "Module"
            for node in hunk.context_chain:
                assert node.label is ChangeLabel.UNCHANGED


class TestDiffTreeAccountsForBothVersions:
    @given(moved_and_renamed_case())
    @settings(max_examples=100, deadline=None)
    def test_dropping_one_label_gives_the_other_version(self, case):
        assert_accounts_for_both_versions(diff_texts(*case), *case)

    @given(moved_and_renamed_case())
    @settings(max_examples=100, deadline=None)
    def test_plus_minus_symmetry_under_swap(self, case):
        assert_swap_symmetry(*case)

import itertools

import pytest
from hypothesis import given, strategies as st

from hochalg.trees import (
    Forest,
    ParseError,
    PlanarTree,
    compare,
    compositions,
    decompose,
    enumerate_forests,
    enumerate_trees,
    forest,
    format_forest,
    format_tree,
    graft,
    leaf,
    parse_forest,
    parse_tree,
)

LITTLE = [1, 1, 3, 11, 45, 197, 903]
LARGE = [1, 2, 6, 22, 90, 394, 1806]

BAR = leaf()
COROLLA2 = graft([BAR, BAR])


def trees_upto(n, alphabet_size=1):
    return [t for k in range(1, n + 1) for t in enumerate_trees(k, alphabet_size)]


small_trees = st.sampled_from(trees_upto(4))
small_forests = st.builds(lambda ts: Forest(tuple(ts)), st.lists(small_trees, min_size=1, max_size=3))


class TestGraftDecompose:
    def test_graft_two_leaves(self):
        assert graft([BAR, BAR]) == COROLLA2
        assert format_tree(COROLLA2) == "[|,|]"

    def test_graft_nested(self):
        t = graft([COROLLA2, BAR, BAR])
        assert format_tree(t) == "[[|,|],|,|]"
        assert t.leaf_count == 4

    def test_graft_arity_error(self):
        with pytest.raises(ValueError):
            graft([BAR])
        with pytest.raises(ValueError):
            graft([])

    def test_decompose_examples(self):
        assert decompose(COROLLA2) == (BAR, BAR)
        assert decompose(graft([COROLLA2, BAR, BAR])) == (COROLLA2, BAR, BAR)

    def test_decompose_leaf_error(self):
        with pytest.raises(ValueError):
            decompose(BAR)

    @given(st.lists(small_trees, min_size=2, max_size=4))
    def test_decompose_graft_roundtrip(self, children):
        assert decompose(graft(children)) == tuple(children)

    def test_graft_decompose_roundtrip_all_nonleaves(self):
        for t in trees_upto(5):
            if not t.is_leaf:
                assert graft(decompose(t)) == t

    def test_leaf_count_additive(self):
        for t in trees_upto(5):
            if not t.is_leaf:
                assert t.leaf_count == sum(c.leaf_count for c in t.children)

    def test_unary_node_unrepresentable(self):
        with pytest.raises(ValueError):
            PlanarTree(children=(BAR,))


class TestEnumeration:
    def test_tree_counts_little_schroeder(self):
        assert [len(enumerate_trees(n)) for n in range(1, 8)] == LITTLE

    def test_forest_counts_large_schroeder(self):
        assert [len(enumerate_forests(n)) for n in range(1, 8)] == LARGE

    def test_degree_one(self):
        assert enumerate_trees(1) == [BAR]
        assert enumerate_forests(1) == [forest(BAR)]

    def test_degree_three_trees(self):
        expected = {"[|,[|,|]]", "[[|,|],|]", "[|,|,|]"}
        assert {format_tree(t) for t in enumerate_trees(3)} == expected

    def test_degree_two_forests(self):
        assert [format_forest(f) for f in enumerate_forests(2)] == ["| |", "[|,|]"]

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        with pytest.raises(ValueError):
            enumerate_forests(0)
        with pytest.raises(ValueError):
            enumerate_trees(2, 0)

    def test_every_enumerated_tree_has_right_leaf_count(self):
        for n in range(1, 6):
            assert all(t.leaf_count == n for t in enumerate_trees(n))
            assert all(f.degree == n for f in enumerate_forests(n))

    @pytest.mark.parametrize("m", [2, 3])
    def test_alphabet_scaling(self, m):
        for n in range(1, 5):
            assert len(enumerate_trees(n, m)) == m**n * LITTLE[n - 1]

    def test_sorted_and_duplicate_free(self):
        for n in range(1, 6):
            fs = enumerate_forests(n)
            assert len(set(fs)) == len(fs)
            assert fs == sorted(fs, key=Forest.sort_key)


def reference_trees(n, alphabet_size):
    """Trees by the direct construction: a leaf, or the graft of every
    word of trees over every composition of n into two or more parts."""
    if n == 1:
        return [leaf(a) for a in range(alphabet_size)]
    out = [
        graft(combo)
        for parts in range(2, n + 1)
        for comp in compositions(n, parts)
        for combo in itertools.product(*(reference_trees(k, alphabet_size) for k in comp))
    ]
    return sorted(out, key=PlanarTree.sort_key)


def reference_forests(n, alphabet_size):
    """Forests by the direct construction: every word of trees over every
    composition of n."""
    out = [
        Forest(combo)
        for parts in range(1, n + 1)
        for comp in compositions(n, parts)
        for combo in itertools.product(*(reference_trees(k, alphabet_size) for k in comp))
    ]
    return sorted(out, key=Forest.sort_key)


class TestEnumerationAgainstCompositions:
    """The one enumeration recursion against the construction over
    compositions, list for list and in the same order."""

    @pytest.mark.parametrize(
        "n, alphabet_size", [(n, 1) for n in range(1, 8)] + [(n, 2) for n in range(1, 5)]
    )
    def test_same_lists_in_the_same_order(self, n, alphabet_size):
        assert enumerate_trees(n, alphabet_size) == reference_trees(n, alphabet_size)
        assert enumerate_forests(n, alphabet_size) == reference_forests(n, alphabet_size)


class TestCompare:
    def test_all_leaves_word_first_in_degree(self):
        # descending tree count: | | before [|,|]
        assert compare(parse_forest("| |"), parse_forest("[|,|]")) == -1

    def test_equal(self):
        assert compare(forest(BAR), forest(BAR)) == 0

    def test_degree_dominates(self):
        assert compare(forest(BAR), forest(COROLLA2)) == -1

    def test_strict_total_order_on_enumerations(self):
        for n in range(1, 5):
            fs = enumerate_forests(n)
            for a, b in itertools.combinations(fs, 2):
                assert compare(a, b) == -compare(b, a) != 0

    @given(small_forests, small_forests, small_forests)
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0

    @given(small_forests, small_forests)
    def test_antisymmetric(self, a, b):
        if compare(a, b) == 0:
            assert a == b


class TestTextForm:
    def test_parse_basic(self):
        f = parse_forest("[|,|] |")
        assert f == forest(COROLLA2, BAR)

    def test_format_canonicalizes(self):
        assert format_forest(parse_forest("[ | , | ]")) == "[|,|]"

    def test_unary_bracket_rejected(self):
        with pytest.raises(ParseError):
            parse_forest("[|]")

    def test_labels(self):
        f = parse_forest("|2 [|,|1]", alphabet_size=3)
        assert f.trees[0] == leaf(2)
        assert format_forest(f) == "|2 [|,|1]"
        assert parse_forest("|0") == forest(BAR)

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError):
            parse_forest("|3", alphabet_size=2)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_forest("[|,|")
        assert exc.value.position == 4

    def test_missing_separator(self):
        with pytest.raises(ParseError):
            parse_forest("||")
        with pytest.raises(ParseError):
            parse_forest("[|,|][|,|]")

    def test_garbage_rejected(self):
        for bad in ["", "x", "[,|]", "[|,]", "| ,", "[|;|]"]:
            with pytest.raises(ParseError):
                parse_forest(bad)

    def test_whitespace_free_inside_brackets(self):
        assert parse_forest("[ [ |,| ] , | ]") == forest(graft([COROLLA2, BAR]))

    def test_roundtrip_exhaustive(self):
        for n in range(1, 6):
            for f in enumerate_forests(n):
                assert parse_forest(format_forest(f)) == f

    @given(small_forests)
    def test_roundtrip_random(self, f):
        assert parse_forest(format_forest(f)) == f

    def test_parse_tree_rejects_forest(self):
        with pytest.raises(ParseError):
            parse_tree("| |")
        assert parse_tree(" [|,|] ") == COROLLA2


# Reference formulas for the fields a tree or forest stores at construction,
# recomputed recursively from the structure alone.
def reference_leaf_count(t):
    return 1 if not t.children else sum(reference_leaf_count(c) for c in t.children)


def reference_tree_key(t):
    if not t.children:
        return (1, 0, t.label)
    return (reference_leaf_count(t), 1, tuple(reference_tree_key(c) for c in t.children))


def reference_forest_key(f):
    degree = sum(reference_leaf_count(t) for t in f.trees)
    return (degree, -len(f.trees), tuple(reference_tree_key(t) for t in f.trees))


STORED_FIELD_CASES = [(n, 1) for n in range(1, 7)] + [(n, 2) for n in range(1, 5)]


class TestStoredFields:
    @pytest.mark.parametrize("n,alphabet_size", STORED_FIELD_CASES)
    def test_tree_fields_match_definitions(self, n, alphabet_size):
        for t in enumerate_trees(n, alphabet_size):
            assert t.sort_key() == reference_tree_key(t)
            assert t.leaf_count == reference_leaf_count(t) == n

    @pytest.mark.parametrize("n,alphabet_size", STORED_FIELD_CASES)
    def test_forest_fields_match_definitions(self, n, alphabet_size):
        for f in enumerate_forests(n, alphabet_size):
            assert f.sort_key() == reference_forest_key(f)
            assert f.degree == sum(reference_leaf_count(t) for t in f.trees) == n

    def test_construction_paths_agree(self):
        parsed = parse_tree("[[|,|1],|,[|,|]]")
        grafted = graft([graft([leaf(), leaf(1)]), leaf(), graft([leaf(), leaf()])])
        corolla = PlanarTree(children=(PlanarTree(), PlanarTree()))
        direct = PlanarTree(children=(PlanarTree(children=(PlanarTree(), PlanarTree(label=1))), PlanarTree(), corolla))
        assert parsed == grafted == direct
        assert hash(parsed) == hash(grafted) == hash(direct)
        assert parsed.sort_key() == grafted.sort_key() == direct.sort_key()

        parsed_f = parse_forest("| [[|,|1],|,[|,|]] |1")
        built_f = forest(leaf(), grafted, leaf(1))
        direct_f = Forest((PlanarTree(), direct, PlanarTree(label=1)))
        assert parsed_f == built_f == direct_f
        assert hash(parsed_f) == hash(built_f) == hash(direct_f)
        assert parsed_f.sort_key() == built_f.sort_key() == direct_f.sort_key()

    def test_unequal_values_and_types(self):
        assert parse_tree("[|,|1]") != parse_tree("[|1,|]")
        assert parse_forest("| [|,|]") != parse_forest("[|,|] |")
        assert BAR != forest(BAR)
        assert forest(BAR) != BAR

    @pytest.mark.parametrize(
        "value,names",
        [
            (COROLLA2, ("label", "children", "leaf_count", "_key", "_hash")),
            (BAR, ("label", "children", "leaf_count", "_key", "_hash")),
            (forest(COROLLA2, BAR), ("trees", "degree", "_key", "_hash")),
        ],
        ids=["tree", "leaf", "forest"],
    )
    def test_attributes_are_read_only(self, value, names):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_pickle_and_deepcopy_roundtrip(self):
        import copy
        import pickle

        from hochalg.algebra import parse_element

        values = [
            BAR,
            parse_tree("[[|,|1],|,[|,|]]"),
            parse_forest("| [[|,|],|] |1"),
            parse_element("3/2*[|,|] | - | | |1"),
        ]
        for value in values:
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert copied == value
                assert hash(copied) == hash(value)

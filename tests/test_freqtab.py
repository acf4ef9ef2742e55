import pickle

import numpy as np
import pytest

from ratiorich.freqtab import (
    FrequencyCountTable,
    InsufficientDataError,
    expand_to_abundances,
    from_abundances,
    observed_richness,
    parse_abundance_vector,
    parse_frequency_table,
    serialize_frequency_table,
    tail_cutoff,
)

from helpers import table


class TestParse:
    def test_basic_csv(self):
        t = parse_frequency_table("1,10\n2,5\n3,2")
        assert t.counts == {1: 10, 2: 5, 3: 2}

    def test_reorders_rows(self):
        t = parse_frequency_table("2,5\n1,10")
        assert t.entries == ((1, 10), (2, 5))

    def test_negative_frequency_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_frequency_table("1,-3")

    def test_separators_tab_comma_whitespace(self):
        assert (
            parse_frequency_table("1\t4").counts
            == parse_frequency_table("1,4").counts
            == parse_frequency_table("1 4").counts
        )

    def test_comments_and_blank_lines(self):
        for text in (
            "# a comment\n\n1 3\n# trailing\n2 1\n",
            "# a comment\r\n\r\n1 3\r\n# trailing\r\n2 1\r\n",
            "  \t \n1 3\n   \n  2 1  \n",
        ):
            assert parse_frequency_table(text).counts == {1: 3, 2: 1}, text

    def test_header_row_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="header"):
            t = parse_frequency_table("count,taxa\n1,7\n2,3")
        assert t.counts == {1: 7, 2: 3}

    @pytest.mark.filterwarnings("ignore:dropping zero-frequency row")
    def test_non_integer_field_after_data_rejected(self):
        # a header-looking row after a zero-frequency row is data, not a header
        for text in ("1,7\nx,3", "1,0\ncount,taxa"):
            with pytest.raises(ValueError, match="line 2: non-integer field"):
                parse_frequency_table(text)

    def test_float_field_rejected_not_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_frequency_table("1.5,3\n2,1")

    def test_zero_frequency_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="zero-frequency"):
            t = parse_frequency_table("1,5\n2,0\n3,1")
        assert t.counts == {1: 5, 3: 1}

    def test_duplicate_count_value_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_frequency_table("1,5\n1,6")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="two fields"):
            parse_frequency_table("1 2 3")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency_table("# nothing\n")


class TestParseAbundances:
    def test_basic(self):
        for text in (
            "3\n1\n2\n",
            "# counts\r\n3\r\n\r\n1\r\n  \r\n2\r\n",
            "\n# counts\n3\n  \n1\n# more\n2",
        ):
            assert parse_abundance_vector(text) == [3, 1, 2], text

    def test_two_fields_rejected(self):
        with pytest.raises(ValueError, match="one count per line"):
            parse_abundance_vector("1,10\n2,5")

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            parse_abundance_vector("2\n0\n")


class TestFromAbundances:
    def test_counting_definition(self):
        assert from_abundances([1, 1, 1, 2, 2, 5]).counts == {1: 3, 2: 2, 5: 1}

    def test_single_taxon(self):
        assert from_abundances([7]).counts == {7: 1}

    def test_all_distinct(self):
        assert from_abundances([1, 2, 3, 4]).counts == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            from_abundances([1, 0, 2])
        with pytest.raises(ValueError):
            from_abundances([-1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            from_abundances([])


class TestObservedRichness:
    def test_sums(self):
        assert observed_richness(table({1: 3, 2: 2})) == 5
        assert observed_richness(table({7: 1})) == 1
        assert observed_richness(table({1: 10, 2: 5, 3: 2})) == 17


class TestTailCutoff:
    def test_stops_before_first_gap(self):
        # run 2..6 is contiguous, 7 missing, so J = 5
        t = table({1: 9, 2: 6, 3: 4, 4: 3, 5: 2, 6: 1, 9: 1})
        assert tail_cutoff(t, 2) == 5

    def test_no_gap(self):
        assert tail_cutoff(table({2: 5, 3: 4, 4: 3, 5: 2, 6: 2}), 2) == 5

    def test_insufficient_after_gap(self):
        with pytest.raises(InsufficientDataError):
            tail_cutoff(table({2: 5, 4: 3}), 2)

    def test_missing_start_rejected(self):
        with pytest.raises(ValueError, match="no entry"):
            tail_cutoff(table({2: 5, 3: 4}), 1)


class TestInvariants:
    def test_round_trip_abundances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = sorted(int(x) for x in rng.integers(1, 30, size=rng.integers(1, 60)))
            t = from_abundances(v)
            assert expand_to_abundances(t) == v
            assert observed_richness(t) == len(v)

    def test_parse_serialize_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            js = sorted(set(int(x) for x in rng.integers(1, 40, size=rng.integers(1, 12))))
            t = FrequencyCountTable.from_counts(
                {j: int(rng.integers(1, 500)) for j in js}
            )
            assert parse_frequency_table(serialize_frequency_table(t)) == t


class TestTableValidation:
    def test_rejects_zero_frequency_entry(self):
        with pytest.raises(ValueError):
            FrequencyCountTable(((1, 0),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FrequencyCountTable(((2, 1), (1, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrequencyCountTable(())

    def test_get_missing_is_zero(self):
        assert table({2: 5}).get(1) == 0

    def test_lookup_keeps_equality_hash_repr_and_pickling(self):
        t = table({1: 3, 2: 5, 7: 1})
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t == FrequencyCountTable(((1, 3), (2, 5), (7, 1)))
        assert hash(copy) == hash(t)
        assert repr(t) == "FrequencyCountTable(entries=((1, 3), (2, 5), (7, 1)))"
        assert [copy.get(j) for j in range(9)] == [0, 3, 5, 0, 0, 0, 0, 1, 0]

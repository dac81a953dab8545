"""Tests for FASTA parsing, label loading, and family statistics."""

import io

import pytest
from hypothesis import given, strategies as st

from seqvec.errors import ConfigError, DataError
from seqvec.sequences import (
    DNA,
    PROTEIN,
    FastaParseError,
    SequenceRecord,
    family_histogram,
    load_family_labels,
    parse_fasta,
    write_fasta,
)


class TestParseFasta:
    def test_multiline_body_concatenated(self):
        records = parse_fasta(">s1 desc\nACG\nTTA\n", DNA)
        assert len(records) == 1
        assert records[0].id == "s1"
        assert records[0].description == "desc"
        assert records[0].residues == "ACGTTA"

    def test_lowercase_normalized(self):
        records = parse_fasta(">a\nMKV\n>b\nmkv\n", PROTEIN)
        assert [r.residues for r in records] == ["MKV", "MKV"]

    def test_strict_rejects_with_position(self):
        with pytest.raises(FastaParseError, match=r"line 2.*'1'"):
            parse_fasta(">a\nMK1\n", PROTEIN, policy="strict")

    def test_replace_policy_substitutes_x(self):
        records = parse_fasta(">a\nMK1V\n", PROTEIN, policy="replace")
        assert records[0].residues == "MKXV"

    def test_replace_policy_is_error_for_dna(self):
        with pytest.raises(FastaParseError, match="line 2"):
            parse_fasta(">a\nACGN\n", DNA, policy="replace")

    def test_empty_file_rejected(self):
        with pytest.raises(FastaParseError, match="empty"):
            parse_fasta("", PROTEIN)

    def test_empty_body_rejected(self):
        with pytest.raises(FastaParseError, match="empty body"):
            parse_fasta(">a\n>b\nMKV\n", PROTEIN)

    def test_duplicate_id_rejected(self):
        with pytest.raises(FastaParseError, match="duplicate"):
            parse_fasta(">a\nMKV\n>a\nMKV\n", PROTEIN)

    @pytest.mark.parametrize("header", [">", ">  "])
    def test_header_without_id_rejected(self, header):
        with pytest.raises(FastaParseError,
                           match="^line 3: header line has no sequence id$"):
            parse_fasta(f">a\nMKV\n{header}\nMKV\n", PROTEIN)

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaParseError, match="line 1"):
            parse_fasta("MKV\n>a\nMKV\n", PROTEIN)

    def test_bytes_and_streams_accepted(self):
        blob = b">a\nMKV\n"
        assert parse_fasta(blob, PROTEIN)[0].residues == "MKV"
        assert parse_fasta(io.BytesIO(blob), PROTEIN)[0].residues == "MKV"

    def test_file_order_preserved(self):
        records = parse_fasta(">z\nAA\n>a\nCC\n>m\nGG\n", DNA)
        assert [r.id for r in records] == ["z", "a", "m"]


class TestParseTotality:
    @given(st.text(max_size=200))
    def test_any_text_yields_records_or_a_positioned_error(self, text):
        # never a partial silent result: either records come back or the
        # parser raises its own positioned error type
        try:
            records = parse_fasta(text, PROTEIN)
        except FastaParseError:
            return
        assert records
        assert all(r.residues for r in records)

    @given(st.binary(max_size=120))
    def test_arbitrary_bytes_never_crash_unexpectedly(self, blob):
        try:
            parse_fasta(blob, DNA)
        except FastaParseError:
            pass
        except DataError as exc:
            assert "invalid UTF-8 at byte" in str(exc)

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO,
                                      lambda b: io.TextIOWrapper(io.BytesIO(b), "utf-8")])
    def test_invalid_utf8_names_its_byte_offset(self, wrap):
        # bytes, a binary stream and a text stream fail alike
        with pytest.raises(DataError, match=r"invalid UTF-8 at byte 6: b'\\xff'"):
            parse_fasta(wrap(b">s1\nAC\xffGT\n"), DNA)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="parse policy must be one of"):
            parse_fasta(">s1\nACGT\n", DNA, "lenient")


@st.composite
def _random_records(draw):
    n = draw(st.integers(1, 6))
    ids = draw(
        st.lists(
            st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
            min_size=n, max_size=n, unique=True,
        )
    )
    records = []
    for rid in ids:
        residues = draw(st.text(st.sampled_from("ACDEFGHIKLMNPQRSTVWY"), min_size=1, max_size=180))
        records.append(SequenceRecord(rid, "", residues))
    return records


class TestFastaRoundTrip:
    @given(_random_records())
    def test_write_then_parse_preserves_id_and_residues(self, records):
        buf = io.StringIO()
        write_fasta(records, buf, width=60)
        reparsed = parse_fasta(buf.getvalue(), PROTEIN)
        assert [(r.id, r.residues) for r in reparsed] == [
            (r.id, r.residues) for r in records
        ]

    def test_wrapping_at_60_columns(self):
        buf = io.StringIO()
        write_fasta([SequenceRecord("a", "", "A" * 125)], buf)
        lines = buf.getvalue().splitlines()
        assert [len(l) for l in lines[1:]] == [60, 60, 5]

    def test_width_below_one_rejected(self):
        with pytest.raises(ConfigError, match="^width must be >= 1, got 0$"):
            write_fasta([SequenceRecord("a", "", "ACD")], io.StringIO(), width=0)


class TestLoadFamilyLabels:
    def test_basic_parse(self):
        labels, dups = load_family_labels("s1\tPF1\ns2\tPF2\n")
        assert labels == {"s1": "PF1", "s2": "PF2"}
        assert dups == 0

    def test_empty_input_gives_empty_map(self):
        assert load_family_labels("") == ({}, 0)

    def test_duplicate_overwrites_and_counts(self):
        labels, dups = load_family_labels("s1\tPF1\ns1\tPF9\n")
        assert labels == {"s1": "PF9"}
        assert dups == 1

    def test_comments_and_extra_columns_ignored(self):
        labels, _ = load_family_labels("# comment\ns1\tPF1\textra stuff\n")
        assert labels == {"s1": "PF1"}

    def test_malformed_line_rejected(self):
        with pytest.raises(DataError, match="line 2"):
            load_family_labels("s1\tPF1\njustonefield\n")


def _rec(i, fam):
    return SequenceRecord(f"s{i}", "", "MKV", family=fam)


class TestFamilyHistogram:
    def test_counts_and_small_bucket(self):
        records = [_rec(0, "PF1"), _rec(1, "PF1"), _rec(2, "PF1"), _rec(3, "PF2")]
        counts, buckets = family_histogram(records)
        assert counts == {"PF1": 3, "PF2": 1}
        assert buckets["<10"] == 2

    def test_empty_input(self):
        counts, buckets = family_histogram([])
        assert counts == {}
        assert all(buckets[b] == 0 for b in ("<10", "11-100", "101-1000", ">1000"))

    def test_over_thousand_boundary(self):
        records = [_rec(i, "BIG") for i in range(1001)]
        counts, buckets = family_histogram(records)
        assert counts["BIG"] == 1001
        assert buckets[">1000"] == 1

    def test_unlabeled_in_reserved_bucket(self):
        counts, buckets = family_histogram([_rec(0, None), _rec(1, "PF1")])
        assert counts == {"PF1": 1}
        assert buckets["unlabeled"] == 1

    @given(st.lists(st.integers(1, 2000), min_size=0, max_size=20))
    def test_bucket_counts_sum_to_family_count(self, sizes):
        records = []
        for f, size in enumerate(sizes):
            records.extend(_rec(f"{f}_{i}", f"F{f}") for i in range(size))
        counts, buckets = family_histogram(records)
        assert len(counts) == len(sizes)
        family_buckets = sum(
            buckets[b] for b in ("<10", "11-100", "101-1000", ">1000")
        )
        assert family_buckets == len(counts)

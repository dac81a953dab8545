"""Sequence records, FASTA and label-file parsing.

Input data arrives as FASTA (sequences) plus a two-column TSV mapping
sequence ids to family labels. Parsing is strict about positions: any
rejected input names the offending line (and column, for residue errors)
so problems in large files can be found without bisection.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable

from .errors import ConfigError, DataError, check_integer

__all__ = [
    "Alphabet",
    "PROTEIN",
    "DNA",
    "ALPHABETS",
    "POLICIES",
    "SequenceRecord",
    "FastaParseError",
    "parse_fasta",
    "write_fasta",
    "load_family_labels",
    "family_histogram",
]


@dataclass(frozen=True)
class Alphabet:
    """A set of admissible uppercase residue letters.

    ``unknown`` is the letter substituted for out-of-alphabet characters
    under the "replace" parsing policy; alphabets without a designated
    unknown letter (DNA) treat such characters as errors under every
    policy.
    """

    name: str
    symbols: str
    unknown: str | None = None
    _set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError(f"alphabet {self.name!r} has duplicate symbols")
        for ch in self.symbols:
            if not ("A" <= ch <= "Z"):
                raise ConfigError(
                    f"alphabet {self.name!r}: symbol {ch!r} is not an uppercase letter"
                )
        if self.unknown is not None and self.unknown not in self.symbols:
            raise ConfigError(
                f"alphabet {self.name!r}: unknown letter {self.unknown!r} not in symbols"
            )
        object.__setattr__(self, "_set", frozenset(self.symbols))

    def __contains__(self, ch: str) -> bool:
        return ch in self._set


#: 20 standard amino acids plus the extended codes B, J, O, U, X, Z as found
#: in real Swiss-Prot entries; X doubles as the replacement letter.
PROTEIN = Alphabet("protein", "ABCDEFGHIJKLMNOPQRSTUVWXYZ", unknown="X")

#: The four nucleotides. No replacement letter: anything else is an error.
DNA = Alphabet("dna", "ACGT")

#: The built-in alphabets by name.
ALPHABETS = {a.name: a for a in (PROTEIN, DNA)}

#: parse_fasta's policies for out-of-alphabet characters.
POLICIES = ("strict", "replace")


@dataclass(frozen=True)
class SequenceRecord:
    """One biological sequence with identifier and optional family label."""

    id: str
    description: str
    residues: str
    family: str | None = None


class FastaParseError(DataError):
    """FASTA input rejected; message carries line (and column) position."""


def _as_text(data: bytes | str | IO) -> str:
    """The text of ``data``: UTF-8 bytes, a string, or a text or binary stream.

    Every input file is decoded here. Invalid UTF-8 is a DataError naming
    its byte offset in the data read.
    """
    try:
        if not isinstance(data, (bytes, str)):
            data = data.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise DataError(
            f"invalid UTF-8 at byte {exc.start}: {exc.object[exc.start:exc.end]!r}"
        ) from None


def parse_fasta(
    data: bytes | str | IO,
    alphabet: Alphabet = PROTEIN,
    policy: str = "strict",
) -> list[SequenceRecord]:
    """Parse FASTA input into validated records, in file order.

    Header lines begin with '>'; the id is the first whitespace-delimited
    token after '>' and the rest of the line is the description.
    Multi-line bodies are concatenated and uppercased. Under
    ``policy="replace"`` out-of-alphabet characters become the alphabet's
    unknown letter (protein: 'X'); alphabets without one reject them under
    either policy. Raises FastaParseError on empty input, empty record
    bodies, duplicate ids, and (under "strict") the first out-of-alphabet
    character, naming its line and column.
    """
    if policy not in POLICIES:
        raise ConfigError(f"parse policy must be one of {POLICIES}, got {policy!r}")
    replace = policy == "replace" and alphabet.unknown is not None

    lines = io.StringIO(_as_text(data))  # split at '\n' only
    records: list[SequenceRecord] = []
    seen: set[str] = set()
    header: str | None = None
    header_line = 0
    parts: list[str] = []
    lineno = 0

    def flush():
        if header is None:
            return
        fields = header.split(None, 1)
        rid = fields[0]
        desc = fields[1].strip() if len(fields) > 1 else ""
        body = "".join(parts)
        if not body:
            raise FastaParseError(f"line {header_line}: record {rid!r} has an empty body")
        if rid in seen:
            raise FastaParseError(f"line {header_line}: duplicate sequence id {rid!r}")
        seen.add(rid)
        records.append(SequenceRecord(rid, desc, body))

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            header_line = lineno
            parts = []
            if not header:
                raise FastaParseError(f"line {lineno}: header line has no sequence id")
            continue
        if not line.strip():
            continue
        if header is None:
            raise FastaParseError(f"line {lineno}: sequence data before first '>' header")
        offset = len(line) - len(line.lstrip())
        chunk = line.strip().upper()
        bad = next((i for i, ch in enumerate(chunk) if ch not in alphabet), None)
        if bad is not None:
            if not replace:
                raise FastaParseError(
                    f"line {lineno}, column {offset + bad + 1}: character "
                    f"{chunk[bad]!r} not in {alphabet.name} alphabet"
                )
            chunk = "".join(ch if ch in alphabet else alphabet.unknown for ch in chunk)
        parts.append(chunk)
    flush()

    if not records:
        raise FastaParseError("empty FASTA input: no records found")
    return records


def write_fasta(records: Iterable[SequenceRecord], stream: IO, width: int = 60) -> None:
    """Write records as FASTA with bodies wrapped at ``width`` columns."""
    check_integer("width", width, 1)
    for rec in records:
        head = f">{rec.id} {rec.description}".rstrip()
        stream.write(head + "\n")
        for i in range(0, len(rec.residues), width):
            stream.write(rec.residues[i : i + width] + "\n")


def load_family_labels(data: bytes | str | IO) -> tuple[dict[str, str], int]:
    """Read an id -> family map from tab-separated lines.

    Lines starting with '#' are comments; blank lines are skipped; columns
    beyond the second are ignored. A later duplicate id overwrites the
    earlier entry; the number of such overwrites is returned alongside the
    map. Raises DataError for lines with fewer than two fields.
    """
    labels: dict[str, str] = {}
    duplicates = 0
    for lineno, raw in enumerate(io.StringIO(_as_text(data)), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 2 or not cols[0] or not cols[1]:
            raise DataError(f"line {lineno}: expected 'id<TAB>family', got {line!r}")
        if cols[0] in labels:
            duplicates += 1
        labels[cols[0]] = cols[1]
    return labels, duplicates


#: Family-size buckets. The first covers sizes 1..10 so the four ranges
#: partition every possible size (11-100, 101-1000 and >1000 leave 10
#: unclaimed otherwise).
_BUCKETS = (("<10", 10), ("11-100", 100), ("101-1000", 1000), (">1000", None))


def family_histogram(
    records: Iterable[SequenceRecord],
) -> tuple[dict[str, int], dict[str, int]]:
    """Count records per family and summarize family sizes into buckets.

    Returns ``(per_family_counts, bucket_summary)``. Records without a
    family label are not counted in the map; their number appears in the
    summary under the reserved key "unlabeled".
    """
    counts: Counter[str] = Counter()
    unlabeled = 0
    for rec in records:
        if rec.family is None:
            unlabeled += 1
        else:
            counts[rec.family] += 1
    summary = {name: 0 for name, _ in _BUCKETS}
    for n in counts.values():
        for name, upper in _BUCKETS:
            if upper is None or n <= upper:
                summary[name] += 1
                break
    summary["unlabeled"] = unlabeled
    return dict(counts), summary

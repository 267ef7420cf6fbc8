"""Citation graph ingestion and indexing.

CSV inputs describe publications (``id,year,month``), citations
(``citing,cited``) and a fractional discipline classification
(``id,discipline,weight``). Graph construction removes synchronous
citations (citing publication not strictly newer than the cited one),
which guarantees the stored graph is a DAG, collapses duplicate edges,
and keeps the adjacency in CSR layout sorted by (citing, cited) so
every downstream computation is reproducible byte for byte. A graph
and a classification are each laid out by one function from index
arrays, ``graph_from_indices`` and ``membership_from_indices``, which
the parsers and the synthetic generator share.

Each table is split into columns, a block of about 256 KiB of whole
lines at a time, with the line of each row. There are two readers. A
plain table (no quotes or NUL, carriage returns only in CRLF line ends,
the same number of fields on every line) that is UTF-8 after an
optional BOM and holds no character beyond ASCII that ``str.strip``
removes is read as bytes: it is streamed from the file twice, once to
check it and once to split it, and the fields of a block are the spans
between its commas and line ends, less the ASCII bytes at either end
that ``str.strip`` removes, with no ``str`` per field. The csv module
reads any other file, decoded whole, and its rows are grouped into
blocks of the same kind.

Ids resolve through one ``IdTable``, an open-addressing hash table of
the node ids keyed by their UTF-8 bytes, which also finds duplicate ids
and groups the membership labels; only the one field that a message
names is ever decoded. Year, month and weight columns read as bytes
are cast all at once, and taken one string at a time only when that
fails. The node and membership tables join their blocks;
``parse_edges`` yields its blocks, and ``build_graph`` turns each into
index arrays before the next is split. Each input rule is a mask over
the columns with its message: the first row a mask rejects is reported
with its line, ahead of any reader error that comes after it (a wrong
field count, or a byte that is not UTF-8, wherever it lies in the file).
"""

from __future__ import annotations

import csv
import io
import math
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

import numpy as np

from ._sparsetools import csr_row_index, csr_tocsc

UNCLASSIFIED = "__unclassified__"
# Largest year magnitude whose month key (``PubTime.key``) fits in int64.
MAX_YEAR = 2**63 // 12 - 1
NODE_HEADER = ("id", "year", "month")
EDGE_HEADER = ("citing", "cited")
MEMBERSHIP_HEADER = ("id", "discipline", "weight")


class CiteflowError(Exception):
    """Base error for this package."""


class IngestError(CiteflowError):
    """Fatal problem with an input file or with graph construction."""


class InternalInvariantError(CiteflowError):
    """A structural guarantee failed; indicates a bug, not bad input."""


class UnknownIdError(IngestError):
    """An edge names a publication that the node table lacks."""

    def __init__(self, edge: int, role: str, node_id: str, line: int) -> None:
        super().__init__(f"edge {edge + 1}: unknown {role} id {node_id!r}")
        self.edge = edge
        self.role = role
        self.node_id = node_id
        self.line = line

    def at(self, path) -> IngestError:
        """The same problem, located at its line in the edge file ``path``."""
        return IngestError(
            f"{path}: line {self.line}: unknown {self.role} id {self.node_id!r}"
        )


@dataclass(frozen=True, order=True)
class PubTime:
    """Publication time at month granularity, ordered by (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    def key(self) -> int:
        """Months since year zero; strictly larger means more recent."""
        return self.year * 12 + self.month - 1


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Publications in file order: external ids and int64 month keys.

    ``time_keys[i]`` is ``PubTime.key()`` of the publication ``ids[i]``.
    """

    ids: tuple[str, ...]
    time_keys: np.ndarray

    @classmethod
    def from_pairs(cls, pairs) -> NodeTable:
        """Table of (id, PubTime) pairs, in their order."""
        pairs = list(pairs)
        return cls(
            ids=tuple(nid for nid, _ in pairs),
            time_keys=np.array([t.key() for _, t in pairs], dtype=np.int64),
        )

    @cached_property
    def id_table(self) -> IdTable:
        """The ``IdTable`` of ``ids``, built on first use (``parse_nodes``
        sets the one it built)."""
        return IdTable(_Fields.of(self.ids))


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Citations in file order: the citing and cited id and the line of each."""

    citing: Sequence[str]
    cited: Sequence[str]
    lines: Sequence[int]

    @classmethod
    def from_pairs(cls, pairs) -> EdgeTable:
        """Table of (citing id, cited id) pairs, the i-th put on line i + 2."""
        pairs = list(pairs)
        return cls(
            citing=tuple(citing for citing, _ in pairs),
            cited=tuple(cited for _, cited in pairs),
            lines=range(2, len(pairs) + 2),
        )


@dataclass(frozen=True, eq=False)
class CitationGraph:
    """Immutable citation DAG over externally named publications.

    Adjacency is stored citing -> cited in CSR form: the cited
    neighbours of node ``i`` are ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending. ``time_keys`` holds each node's month key
    (``PubTime.key()``); every stored edge strictly decreases it, which
    rules out cycles. ``heights`` and ``id_table`` are computed on
    first use and cached. Safe for concurrent reads.
    """

    node_ids: tuple[str, ...]
    time_keys: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    n: int
    m: int

    @cached_property
    def id_table(self) -> IdTable:
        """The ``IdTable`` of ``node_ids``, built on first use (``build_graph``
        sets its node table's)."""
        return IdTable(_Fields.of(self.node_ids))

    @property
    def outdegree(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def heights(self) -> np.ndarray:
        """Length of the longest path that starts at each publication.

        Computed once, by peeling a reverse frontier over the transposed
        edges. The sinks, height 0, are the first frontier. Each step
        gathers the citers of the frontier, sorted, and takes from each
        its count of citations just resolved; the citers left with none
        unresolved form the next frontier, one level higher. That is
        L + 1 steps for a longest path of L, and each edge is visited once.

        Raises:
            InternalInvariantError: some publication is never reached,
                so the edges contain a cycle.
        """
        n = self.n
        # The kernels carry a data array along; one byte an entry here.
        flags = np.zeros(self.m, dtype=bool)
        citers_ptr = np.empty(n + 1, dtype=self.indptr.dtype)
        citers = np.empty_like(self.indices)
        csr_tocsc(n, n, self.indptr, self.indices, flags, citers_ptr, citers, flags.copy())
        unresolved = self.outdegree
        heights = np.full(n, -1, dtype=np.int64)
        frontier = np.flatnonzero(unresolved == 0)
        level = 0
        while frontier.size:
            heights[frontier] = level
            size = int((citers_ptr[frontier + 1] - citers_ptr[frontier]).sum())
            found = np.empty(size, dtype=citers.dtype)
            csr_row_index(frontier.size, frontier, citers_ptr, citers, flags,
                          found, np.empty(size, dtype=bool))
            found.sort()
            starts = np.flatnonzero(run_starts(found))
            found = found[starts]
            unresolved[found] -= np.diff(starts, append=size)
            frontier = found[unresolved[found] == 0]
            level += 1
        if (heights < 0).any():
            raise InternalInvariantError("cycle detected in citation graph")
        heights.setflags(write=False)
        return heights


@dataclass(frozen=True)
class IngestReport:
    """What happened while turning raw edge rows into a graph."""

    nodes_read: int
    edges_read: int
    synchronous_edges_discarded: int
    duplicate_edges_discarded: int
    warnings: tuple[str, ...] = ()

    @property
    def edges_kept(self) -> int:
        return (
            self.edges_read
            - self.synchronous_edges_discarded
            - self.duplicate_edges_discarded
        )


@dataclass(frozen=True, eq=False)
class Membership:
    """Row-stochastic publication-to-discipline weights.

    The n x k weights are held as the CSR arrays ``indptr``, ``indices``
    and ``data``, with each row's disciplines in ascending order and
    none repeated.
    """

    k: int
    labels: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def sizes(self) -> np.ndarray:
        """Per-discipline publication mass (column sums of the weights),
        each added up in entry order."""
        return np.bincount(self.indices, weights=self.data, minlength=self.k)


# Bytes that the byte reader leaves to the csv module, and the ASCII
# characters that str.strip removes (\x1c-\x1f among them), which it cuts
# from the ends of each field.
_CSV_ONLY = (b'"', b"\x00")
_ASCII_SPACE = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
_IS_SPACE = np.isin(np.arange(256), np.frombuffer(_ASCII_SPACE, np.uint8))
# The characters beyond ASCII that str.strip removes, which only the csv
# module reads.
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
_BOM = b"\xef\xbb\xbf"
# About how many bytes of whole lines are checked, split or looked up at a
# time, so that the fields of a whole file are never alive at once.
_BLOCK = 1 << 18
# Zero bytes after the fields of a column, so that every key loads in
# place: a key takes at most _WORDS words, and an id table compares a
# longer id as a whole string.
_PAD = 64
_WORDS = _PAD // 8
# _MASKS[b] keeps the first b bytes of a little-endian uint64 word.
_MASKS = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)


def _line_blocks(fh) -> Iterator[bytes]:
    """The binary file ``fh`` as blocks of whole lines: each read of
    ``_BLOCK`` bytes that holds a newline ends a block at its last one,
    and the last block ends where the file does."""
    pieces: list[bytes] = []
    while chunk := fh.read(_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pieces, chunk[:cut]])
            pieces = []
        pieces.append(chunk[cut:])
    if any(pieces):
        yield b"".join(pieces)


def _plain(block: bytes, width: int) -> bool:
    """Whether the whole lines ``block`` are lines of a plain table of
    ``width`` columns: no quote or NUL, carriage returns only in CRLF line
    ends, ``width`` fields of at most ``csv.field_size_limit()`` bytes on
    every line. The csv module counts that limit in characters, so a field
    beyond ASCII that is within it in characters but not in bytes leaves
    its file to the csv module, which reads it as well."""
    if any(c in block for c in _CSV_ONLY) or (
        b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
    ):
        return False
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    # The end of the file ends a last line that lacks its newline.
    count = ends.size + (not block.endswith(b"\n"))
    line = np.frombuffer(b"," * (width - 1) + b"\n", dtype=np.uint8)
    return (
        count % width == 0
        and np.array_equal(buf[ends], np.tile(line, count // width)[: ends.size])
        and int(np.diff(ends, prepend=-1, append=buf.size).max()) - 1
        <= csv.field_size_limit()
    )


def _csv_rows(path, header: tuple[str, ...]):
    """Yield (line number, stripped fields) for each nonblank data row of
    ``path``, which is read and decoded whole, without one leading BOM.

    The line number is that of the row's last physical line, so it
    stays right after a quoted field that spans lines. Rows that end on
    the line of the first byte that is not UTF-8, or later, are not
    read, and its error follows the rows before them.

    Raises:
        IngestError: wrong header, wrong field count, a row the csv
            module rejects (such as an overlong field), or a byte that is
            not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, end, error = data.decode("utf-8"), math.inf, None
    except UnicodeDecodeError as exc:
        end = data.count(b"\n", 0, exc.start) + 1
        error = IngestError(f"{path}: line {end}: {exc}")
        text = data.decode("utf-8", "replace")  # replacement characters past it
    del data
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    del text
    try:
        first = next(reader, None)
        if reader.line_num < end and [h.strip() for h in first or ()] != list(header):
            raise IngestError(f"{path}: expected header '{','.join(header)}'")
        for row in reader:
            if reader.line_num >= end:
                break
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            yield reader.line_num, [f.strip() for f in row]
    except csv.Error as exc:
        if reader.line_num < end:
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    if error is not None:
        raise error


@dataclass(frozen=True, eq=False)
class _Fields:
    """One column of a table: field i is the UTF-8 bytes
    ``data[starts[i] : starts[i] + lengths[i]]``, followed by at least
    ``_PAD`` bytes of ``data``. ``texts`` holds the fields as str when
    the csv module read them, and is None when they were read as bytes:
    then they are UTF-8, with no newline.

    Reads as a sequence of str; indexing decodes only the field asked for.
    """

    data: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    texts: list[str] | None = None

    @classmethod
    def of(cls, texts) -> _Fields:
        """The column of the strings ``texts``."""
        texts = list(texts)
        encoded = [t.encode("utf-8", "surrogatepass") for t in texts]
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        data = np.frombuffer(b"".join(encoded) + bytes(_PAD), np.uint8)
        return cls(data, np.cumsum(lengths) - lengths, lengths, texts)

    @classmethod
    def join(cls, parts: Sequence[_Fields]) -> _Fields:
        """The fields of ``parts``, one after another."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.of(())
        texts = None if parts[0].texts is None else [t for p in parts for t in p.texts]
        lengths = np.concatenate([p.lengths for p in parts])
        if all(p.data is parts[0].data for p in parts):
            # The columns of one block are views of its one buffer: keep it.
            return cls(parts[0].data, np.concatenate([p.starts for p in parts]), lengths, texts)
        offsets = np.cumsum([0] + [p.data.size for p in parts[:-1]])
        starts = np.concatenate([p.starts + at for p, at in zip(parts, offsets)])
        return cls(np.concatenate([p.data for p in parts]), starts, lengths, texts)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i) -> str:
        if self.texts is not None:
            return self.texts[i]
        start = int(self.starts[i])
        return self.data[start : start + int(self.lengths[i])].tobytes().decode()

    def __iter__(self) -> Iterator[str]:
        return iter(self.strings())

    def strings(self) -> list[str]:
        """The fields as str."""
        if self.texts is not None:
            return self.texts
        # Each field and the byte after it, which is made a newline: fields
        # read as bytes hold none, so one split parts them.
        sizes = self.lengths + 1
        ends = np.cumsum(sizes)
        at = np.arange(int(ends[-1]) if ends.size else 0)
        at += np.repeat(self.starts - (ends - sizes), sizes)
        joined = self.data[at]
        joined[ends - 1] = ord("\n")
        return joined.tobytes().decode().split("\n")[:-1]

    def words(self, count: int) -> np.ndarray:
        """The fields as the columns of a (``count``, len) array of
        little-endian uint64 words: the first 8 x ``count`` bytes of each
        field, then zeros. ``count`` is at most ``_WORDS``, so every word
        lies within ``data``."""
        # The word at every byte: a view with stride 1.
        runs = np.ndarray((self.data.size - 7,), "<u8", self.data, strides=(1,))
        words = np.stack([runs[self.starts + 8 * j] for j in range(count)])
        words &= _MASKS[np.clip(self.lengths - 8 * np.arange(count)[:, None], 0, 8)]
        return words


def _byte_table(path, header: tuple[str, ...]) -> bool:
    """Whether ``path`` is a plain table (see ``_plain``) under ``header``
    that is UTF-8 after an optional BOM and holds no ``_WIDE_SPACE``
    character. Reads the file a block at a time, up to its first block
    that is not."""
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        first = next(blocks, b"").removeprefix(_BOM)
        names = first.partition(b"\n")[0].removesuffix(b"\r").split(b",")
        if [n.strip(_ASCII_SPACE) for n in names] != [h.encode() for h in header]:
            return False
        return all(
            _narrow(block) and _plain(block, len(header))
            for block in chain([first], blocks)
        )


def _narrow(block: bytes) -> bool:
    """Whether ``block`` is UTF-8 and holds no ``_WIDE_SPACE`` character."""
    if block.isascii():
        return True
    try:
        return not _WIDE_SPACE.search(block.decode("utf-8"))
    except UnicodeDecodeError:
        return False


def _byte_blocks(path, width: int) -> Iterator[_Table]:
    """The data rows of ``path``, a table that ``_byte_table`` accepts, a
    block of whole lines at a time: data row i is on line i + 2."""
    line = 2
    with open(path, "rb") as fh:
        for number, block in enumerate(_line_blocks(fh)):
            if not number:  # drop the BOM and the header
                block = block.removeprefix(_BOM).partition(b"\n")[2]
            if not block:
                continue
            buf = np.zeros(len(block) + _PAD, np.uint8)
            buf[: len(block)] = np.frombuffer(block, np.uint8)
            ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
            if not block.endswith(b"\n"):
                ends = np.append(ends, len(block))
            starts = np.zeros_like(ends)
            starts[1:] = ends[:-1] + 1
            lengths = ends - starts - (buf[ends - 1] == ord("\r"))  # CRLF ends
            if any(c in block for c in _ASCII_SPACE):
                _strip(buf, starts, lengths)
            rows = len(ends) // width
            columns = [_Fields(buf, starts[j::width].copy(), lengths[j::width].copy())
                       for j in range(width)]
            yield _Table(path, columns, range(line, line + rows), None)
            line += rows


def _strip(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
    """Cut the leading and then the trailing ``_ASCII_SPACE`` bytes of
    ``buf`` from the fields at ``starts`` of ``lengths``, in place, in a
    fixed number of array operations.

    Two rounds move one edge byte of each field that still has such a
    byte there, which is all most padding needs. A longer run is then cut
    at once, to where it ends (leading) or starts (trailing), found by
    ``searchsorted`` among all runs of such bytes; no run goes past a
    field's end, a separator or one of the zero bytes that end ``buf``.
    """
    cut = np.flatnonzero(lengths)
    for rounds in range(3):
        cut = cut[(lengths[cut] > 0) & _IS_SPACE[buf[starts[cut]]]]
        if rounds < 2:
            starts[cut] += 1
            lengths[cut] -= 1
        elif cut.size:
            space = _IS_SPACE[buf]
            run_ends = np.flatnonzero(space[:-1] > space[1:]) + 1
            ends = starts[cut] + lengths[cut]
            starts[cut] = run_ends[np.searchsorted(run_ends, starts[cut], "right")]
            lengths[cut] = ends - starts[cut]
    cut = np.flatnonzero(lengths)
    for rounds in range(3):
        cut = cut[(lengths[cut] > 0) & _IS_SPACE[buf[starts[cut] + lengths[cut] - 1]]]
        if rounds < 2:
            lengths[cut] -= 1
        elif cut.size:
            space = _IS_SPACE[buf]
            run_starts = np.flatnonzero(space[:-1] < space[1:]) + 1
            last = starts[cut] + lengths[cut] - 1
            at = np.searchsorted(run_starts, last, "right") - 1
            lengths[cut] = run_starts[at] - starts[cut]


@dataclass(frozen=True)
class _Table:
    """Stripped columns of the data rows read from ``path``, their lines,
    and the reader's error after the last row it read, if any."""

    path: object
    columns: list[_Fields]
    lines: Sequence[int]
    error: IngestError | None

    @classmethod
    def block(cls, path, fields: list[str], width: int, lines: Sequence[int]) -> _Table:
        """The rows of ``fields``, ``width`` to a row, as a table without error."""
        columns = [_Fields.of(fields[j::width]) for j in range(width)]
        return cls(path, columns, lines, None)

    def at(self, row) -> str:
        return f"{self.path}: line {self.lines[row]}: "

    def check(self, rules) -> None:
        """Raise the error of the first row that a rule rejects, else ``error``.

        A rule pairs a row mask (False when no row fails) with a function
        of the row that words its error; the first rule a row fails wins.
        """
        failed = [(np.argmax(m), k) for k, (m, _) in enumerate(rules) if np.any(m)]
        if failed:
            row, k = min(failed)
            raise IngestError(rules[k][1](int(row)))
        if self.error is not None:
            raise self.error


def _blocks(path, header: tuple[str, ...]) -> Iterator[_Table]:
    """The nonblank data rows of ``path``, in file order, a block of about
    ``_BLOCK`` bytes at a time; then the reader's error, if any.

    Nothing is read before the first block is asked for. A table that
    ``_byte_table`` accepts is split as bytes by ``_byte_blocks``, its data
    row i on line i + 2. The csv module reads any other file, through
    ``_csv_rows``, whose rows are grouped into blocks of about the same
    size; the rows before its first failure are yielded before the failure
    is raised.

    Raises:
        IngestError: wrong header, wrong field count, a row the csv module
            rejects, or a byte that is not UTF-8.
    """
    width = len(header)
    if _byte_table(path, header):
        yield from _byte_blocks(path, width)
        return
    fields, lines, size, error = [], [], 0, None
    try:
        for lineno, row in _csv_rows(path, header):
            fields += row
            lines.append(lineno)
            size += sum(map(len, row))
            if size >= _BLOCK:
                yield _Table.block(path, fields, width, lines)
                fields, lines, size = [], [], 0
    except IngestError as exc:
        error = exc
    if lines:
        yield _Table.block(path, fields, width, lines)
    if error is not None:
        raise error


def _csv_columns(path, header: tuple[str, ...]) -> _Table:
    """The nonblank data rows of ``path`` as columns, in file order: the
    blocks of ``_blocks`` joined, and the error it raises after them."""
    parts, lines, error = [], [], None
    try:
        for block in _blocks(path, header):
            parts.append(block.columns)
            lines.append(block.lines)
    except IngestError as exc:
        error = exc
    columns = [_Fields.join([part[j] for part in parts]) for j in range(len(header))]
    # The byte reader's blocks number the lines of a table on from 2.
    if all(isinstance(part, range) for part in lines):
        lines = range(2, 2 + sum(map(len, lines)))
    else:
        lines = array("q", chain.from_iterable(lines))
    return _Table(path, columns, lines, error)


def _blank(column: _Fields) -> np.ndarray | bool:
    """Mask of the empty fields of ``column``; False when it has none."""
    return not column.lengths.all() and column.lengths == 0


def _numbers(
    convert, column: _Fields, dtype, blank: str = ""
) -> tuple[np.ndarray, np.ndarray | bool]:
    """``convert`` of each field of ``column`` (``blank`` in place of an
    empty one) as a ``dtype`` array, and the mask of the fields it rejects
    (False when none).

    Fields read as bytes, none longer than ``_PAD``, are cast all at once
    from bytes: integers of 1 to 18 ASCII digits by ``_digits``, anything
    else by numpy, which casts as ``int`` and ``float`` do for ASCII and
    rejects any byte beyond ASCII. Only when that fails, or cannot be
    tried, are they taken as strings, first all at once and then one by
    one: a rejected string reads 0, and an integer beyond int64 is clipped
    to it, so range checks still hold.
    """
    if column.texts is None and column.lengths.max(initial=0) <= _PAD:
        # Each field as bytes, NUL-padded to whole words, which numpy ignores.
        width = max(int(column.lengths.max(initial=0)), len(blank), 1)
        count = -(-width // 8)
        cells = np.ascontiguousarray(column.words(count).T).view(f"S{8 * count}")[:, 0]
        sizes = column.lengths
        if blank:
            cells[sizes == 0] = blank.encode()
            sizes = np.where(sizes == 0, len(blank.encode()), sizes)
        if convert is int:
            values = _digits(cells, sizes)
            if values is not None:
                return values, False
        try:
            return cells.astype(dtype), False
        except (ValueError, OverflowError):
            pass
    strings = [s or blank for s in column.strings()]
    try:
        return np.fromiter(map(convert, strings), dtype, len(strings)), False
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(strings), dtype=dtype)
    rejected = np.zeros(len(strings), dtype=bool)
    for i, s in enumerate(strings):
        try:
            values[i] = convert(s)
        except ValueError:
            rejected[i] = True
        except OverflowError:
            values[i] = np.iinfo(dtype).max if int(s) > 0 else np.iinfo(dtype).min
    return values, rejected


def _digits(cells: np.ndarray, sizes: np.ndarray) -> np.ndarray | None:
    """The int64 values of the NUL-padded byte strings ``cells`` of
    ``sizes`` bytes when every one is 1 to 18 ASCII digits, which no int64
    overflows; else None."""
    if sizes.min(initial=1) < 1 or sizes.max(initial=0) > 18:
        return None
    raw = cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)
    digits = raw[:, :18] - ord("0")  # a byte below "0" wraps past 9
    if ((digits > 9) & (np.arange(digits.shape[1]) < sizes[:, None])).any():
        return None
    values = np.zeros(len(cells), dtype=np.int64)
    for j in range(int(sizes.max(initial=0))):
        values = np.where(sizes > j, values * 10 + digits[:, j], values)
    return values


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _hash(keys: np.ndarray, bits: int) -> np.ndarray:
    """First slot, among ``2**bits``, of each column of the uint64 array
    ``keys``: the top ``bits`` bits of a multiply-xor hash of its words."""
    h = keys[0] * _MIX
    for word in keys[1:]:
        h ^= h >> 29
        h ^= word
        h *= _MIX
    h ^= h >> 29
    h *= _MIX
    return (h >> (64 - bits)).astype(np.int64)


class IdTable:
    """Where each field of a column lies among a column of ids.

    An id is keyed by its length and ``words`` little-endian uint64 words
    of its UTF-8 bytes, zero past its end. The longest id fixes ``words``,
    up to ``_WORDS``, so a field longer than every id matches none. Keys
    are placed in an open-addressing table of more than twice as many
    slots as ids, by linear probing from ``_hash``: every pending key
    takes one probe step per round, and each hit is checked on the
    length and on every word, and on the whole string if the id is
    longer than its words. ``first[i]`` is the index of the first id
    equal to id i, so id i is a duplicate when it is not i.
    """

    def __init__(self, ids: _Fields) -> None:
        n = len(ids)
        self.words = min(max(1, -(-int(ids.lengths.max(initial=0)) // 8)), _WORDS)
        self.bits = max(1, (2 * n).bit_length())
        longer = np.flatnonzero(ids.lengths > 8 * self.words)
        self.long = {int(i): ids[i] for i in longer}
        # Id n is the key of an empty slot, which no key equals.
        self.keys = np.concatenate(
            [ids.words(self.words), np.zeros((self.words, 1), np.uint64)], axis=1
        )
        self.lengths = np.append(ids.lengths, -1)
        self.slots = np.full(1 << self.bits, n, np.int64)
        self.first = self._probe(ids, claim=True)

    def find(self, fields: _Fields) -> np.ndarray:
        """Index of the id equal to each field of ``fields``; -1 for none."""
        return self._probe(fields, claim=False)

    def _probe(self, fields: _Fields, claim: bool) -> np.ndarray:
        """Probe for each field: the index of the id it equals, or -1 once an
        empty slot is reached. With ``claim``, the fields are the ids: each
        empty slot reached goes to the lowest id reaching it, so that equal
        ids, which probe together, all find the first of them."""
        empty = len(self.lengths) - 1
        keys, lengths = fields.words(self.words), fields.lengths
        found = np.full(len(fields), -1, np.int64)
        pending = np.arange(len(fields))
        slot = _hash(keys, self.bits)
        while pending.size:
            if claim:
                vacant = self.slots[slot] == empty
                np.minimum.at(self.slots, slot[vacant], pending[vacant])
            held = self.slots[slot]
            hit = self.lengths[held] == lengths
            for ours, key in zip(self.keys, keys):
                hit &= ours[held] == key
            if self.long:
                for i in np.flatnonzero(hit & (lengths > 8 * self.words)):
                    hit[i] = self.long[int(held[i])] == fields[pending[i]]
            found[pending] = np.where(hit, held, -1)
            rest = np.flatnonzero(~hit & (held != empty))
            pending, keys, lengths = pending[rest], keys[:, rest], lengths[rest]
            slot = (slot[rest] + 1) & (len(self.slots) - 1)
        return found


def parse_nodes(path) -> tuple[NodeTable, list[str]]:
    """Read the publication table.

    Returns (nodes, warnings) where nodes holds the ids and month keys
    in file order. A blank month defaults to January with a warning.

    Raises:
        IngestError: bad header, wrong field count, or the first row
            with an empty id, a duplicate id, a non-integer year, a
            year beyond ``MAX_YEAR``, a non-integer month, or a month
            outside 1..12, with its line number.
    """
    table = _csv_columns(path, NODE_HEADER)
    ids, year_s, month_s = table.columns
    id_table = IdTable(ids)
    first = id_table.first
    years, year_bad = _numbers(int, year_s, np.int64)
    months, month_bad = _numbers(int, month_s, np.int64, blank="1")
    at, lines = table.at, table.lines
    table.check([
        (_blank(ids), lambda i: f"{at(i)}empty node id"),
        (
            first != np.arange(len(ids)),
            lambda i: f"{at(i)}duplicate node id {ids[i]} "
            f"(first on line {lines[first[i]]})",
        ),
        (year_bad, lambda i: f"{at(i)}year {year_s[i]!r} is not an integer"),
        (
            (years > MAX_YEAR) | (years < -MAX_YEAR),
            lambda i: f"{at(i)}year {int(year_s[i])} outside -{MAX_YEAR}..{MAX_YEAR}",
        ),
        (month_bad, lambda i: f"{at(i)}month {month_s[i]!r} is not an integer"),
        (
            (months < 1) | (months > 12),
            lambda i: f"{at(i)}month {int(month_s[i])} outside 1..12",
        ),
    ])
    nodes = NodeTable(ids=tuple(ids.strings()), time_keys=years * 12 + months - 1)
    nodes.__dict__["id_table"] = id_table  # the cached property, already built
    warnings = [
        f"node {nodes.ids[i]}: blank month defaults to 1 (line {lines[i]})"
        for i in np.flatnonzero(_blank(month_s))
    ]
    return nodes, warnings


def parse_edges(path) -> Iterator[EdgeTable]:
    """Read the citation table a block of rows at a time: yield, in file
    order, an EdgeTable of the citing and cited id and the line of each row.

    The file is read when the first block is asked for. ``map`` holds no
    block once it has handed it on, so a block that the caller drops is
    freed before the next one is split.

    Raises, while the blocks are read:
        IngestError: bad header, wrong field count, or the first row
            with a missing citing or cited id, with its line number. A
            missing id is raised with its block; any other error after the
            last block, which holds the rows before it.
    """
    return map(_edge_block, _blocks(path, EDGE_HEADER))


def _edge_block(block: _Table) -> EdgeTable:
    """The edges of one block of the citation table, once no id is missing."""
    citing, cited = block.columns
    block.check([
        (_blank(citing), lambda i: f"{block.at(i)}missing citing id"),
        (_blank(cited), lambda i: f"{block.at(i)}missing cited id"),
    ])
    return EdgeTable(citing=citing, cited=cited, lines=block.lines)


def _resolve(id_table: IdTable, edges: EdgeTable):
    """The index arrays of the citing and cited ids of ``edges``, and the
    (row, role, id, line) of its first row that names an unknown id, or None."""
    columns = [c if isinstance(c, _Fields) else _Fields.of(c)
               for c in (edges.citing, edges.cited)]
    # One lookup of both columns: each round of probing costs the same
    # few numpy calls, however few ids are left.
    found = id_table.find(_Fields.join(columns))
    citing, cited = found[: len(columns[0])], found[len(columns[0]) :]
    unknown = (citing < 0) | (cited < 0)
    if not unknown.any():
        return citing, cited, None
    row = int(np.argmax(unknown))
    role, ids = ("citing", columns[0]) if citing[row] < 0 else ("cited", columns[1])
    return citing, cited, (row, role, ids[row], edges.lines[row])


def build_graph(
    nodes: NodeTable, edges: Iterable[EdgeTable]
) -> tuple[CitationGraph, IngestReport]:
    """Look up the ids of the edges, then assemble with ``graph_from_indices``.

    ``edges`` is a sequence of blocks, such as ``parse_edges`` yields or
    ``[EdgeTable.from_pairs(...)]``. Each block is resolved to index arrays
    in ``nodes.id_table`` as it comes; only those arrays and the first
    unknown id are kept.

    Raises:
        IngestError: what reading ``edges`` raises; then zero nodes.
        UnknownIdError: an edge names an id missing from ``nodes``.
    """
    ids = tuple(nodes.ids)
    # An empty array first, so that a table of no blocks concatenates too.
    citing, cited = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    unknown = None
    # map holds no block once resolved, so each is freed before the next is read.
    resolved = map(partial(_resolve, nodes.id_table), edges)
    for block_citing, block_cited, first in resolved:
        if first is not None and unknown is None:
            row, role, node_id, line = first
            unknown = UnknownIdError(sum(map(len, citing)) + row, role, node_id, line)
        citing.append(block_citing)
        cited.append(block_cited)
    if not ids:
        raise IngestError("zero nodes: cannot build a citation graph")
    if unknown is not None:
        raise unknown
    citing = np.concatenate(citing)
    cited = np.concatenate(cited)
    return graph_from_indices(ids, nodes.time_keys, citing, cited, nodes.id_table)


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in the sorted
    array ``ordered``: a sort and this mask, not ``np.unique``, which
    hashes int64 keys and is several times slower."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def graph_from_indices(
    ids: tuple[str, ...], time_keys, citing, cited, id_table: IdTable | None = None
) -> tuple[CitationGraph, IngestReport]:
    """Assemble a CitationGraph, dropping synchronous and duplicate citations.

    Edge e cites ``ids[cited[e]]`` from ``ids[citing[e]]``; ``ids`` is
    nonempty, and ``id_table``, if given, is its ``IdTable``. Synchronous
    edges, whose citing publication is not newer than the cited one
    (self-loops among them), are discarded; duplicates are collapsed.
    ``citing`` and ``cited`` are int64 arrays, left unchanged.
    """
    n = len(ids)
    tkey = np.array(time_keys, dtype=np.int64)
    keep = tkey[citing] > tkey[cited]
    edges_read = int(keep.size)
    # Sorted, so CSR rows and columns come out ordered.
    key = citing[keep]
    key *= n
    key += cited[keep]
    del keep
    key.sort()
    synchronous = edges_read - int(key.size)
    first = run_starts(key)
    unique = key[first]
    duplicates = int(key.size - unique.size)
    del key, first
    rows = unique // n
    indices = np.remainder(unique, n, out=unique)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    m = int(indices.size)
    if m and not np.all(tkey[rows] > tkey[indices]):
        raise InternalInvariantError(
            "stored edge does not strictly decrease publication time"
        )
    for frozen in (tkey, indptr, indices):
        frozen.setflags(write=False)
    graph = CitationGraph(
        node_ids=ids,
        time_keys=tkey,
        indptr=indptr,
        indices=indices,
        n=n,
        m=m,
    )
    if id_table is not None:
        graph.__dict__["id_table"] = id_table  # the cached property, already built
    report = IngestReport(
        nodes_read=n,
        edges_read=edges_read,
        synchronous_edges_discarded=synchronous,
        duplicate_edges_discarded=duplicates,
    )
    return graph, report


def longest_path_length(graph: CitationGraph) -> int:
    """Maximum number of edges on any directed path: the largest height.

    The first call on a graph runs the frontier pass behind
    ``CitationGraph.heights``; later calls read the cached heights.

    Raises:
        InternalInvariantError: the edges contain a cycle.
    """
    return int(graph.heights.max())


def parse_membership(path, graph: CitationGraph) -> tuple[Membership, list[str]]:
    """Read the discipline classification and normalize it row-stochastic.

    Rows are grouped per publication and renormalized to sum to one
    (with a warning when the raw sum is off by more than 1e-9).
    Publications without any row are assigned to a synthetic
    ``__unclassified__`` discipline. Discipline label order is
    first-appearance order, with the synthetic label last.

    Raises:
        IngestError: bad header, wrong field count, or the first row
            with an empty id or discipline, a weight that is not a
            number, a weight that is not positive and finite, an unknown
            id, or the weights of one publication summing beyond the
            float range, with its line number.
        InternalInvariantError: the sums overflow, but no row does.
    """
    table = _csv_columns(path, MEMBERSHIP_HEADER)
    ids, labels, weight_s = table.columns
    weight, not_number = _numbers(float, weight_s, np.float64)
    positive = (weight > 0) & np.isfinite(weight)
    node = graph.id_table.find(ids)
    # Each row's label as its place among the labels in first-appearance order.
    first = IdTable(labels).first
    new = first == np.arange(len(labels))
    col = (np.cumsum(new) - 1)[first]
    at = table.at
    rules = [
        (_blank(ids) | _blank(labels), lambda i: f"{at(i)}empty id or discipline"),
        (not_number, lambda i: f"{at(i)}weight {weight_s[i]!r} is not a number"),
        (~positive, lambda i: f"{at(i)}nonpositive weight {weight_s[i]} for {ids[i]}"),
        (node < 0, lambda i: f"{at(i)}membership references unknown id {ids[i]!r}"),
    ]
    if table.error is None and not any(np.any(mask) for mask, _ in rules):
        # A publication without a row goes to the synthetic discipline,
        # which comes last unless the file names it.
        missing = np.flatnonzero(np.bincount(node, minlength=graph.n) == 0)
        names, cell_col = [labels[i] for i in np.flatnonzero(new)], col
        if missing.size:
            names = list(dict.fromkeys([*names, UNCLASSIFIED]))
            unclassified = np.full(missing.size, names.index(UNCLASSIFIED))
            cell_col = np.concatenate([col, unclassified])
        try:
            membership, total = membership_from_indices(
                graph.n, tuple(names), np.concatenate([node, missing]), cell_col,
                np.concatenate([weight, np.ones(missing.size)]),
            )
        except OverflowError:
            pass  # the rules below find the row
        else:
            warnings = [
                f"publication {graph.node_ids[i]} has no membership row, "
                f"assigned to {UNCLASSIFIED}"
                for i in missing
            ]
            warnings += [
                f"membership rows for {graph.node_ids[i]} sum to "
                f"{float(total[i]):.12g}; renormalized to 1"
                for i in np.flatnonzero(np.abs(total - 1.0) > 1e-9)
            ]
            return membership, warnings
    # From the first row another rule rejects on, no overflow is reported.
    end = min((np.argmax(m) for m, _ in rules if np.any(m)), default=len(ids))
    rules.append((
        _overflows(node, col, weight, positive[:end]),
        lambda i: f"{at(i)}weights for {ids[i]} sum beyond the float range",
    ))
    table.check(rules)
    raise InternalInvariantError(f"{path}: weights overflow, but on no row")


def membership_from_indices(
    n: int, labels: tuple[str, ...], node, col, weight
) -> tuple[Membership, np.ndarray]:
    """Assemble a row-stochastic Membership from index arrays.

    Entry e gives publication ``node[e]`` the positive weight
    ``weight[e]`` in discipline ``labels[col[e]]``. Entries repeating a
    (publication, discipline) cell add up in entry order, and each row is
    divided by its exactly rounded total; a publication without an entry
    keeps an empty row. Returns the membership and the row totals.

    Raises:
        OverflowError: a cell or a row total lies beyond the float range.
    """
    k = len(labels)
    # bincount adds up the entries of each cell sequentially.
    cell, inverse = np.unique(node * k + col, return_inverse=True)
    value = np.bincount(inverse, weights=weight)
    row = cell // k
    indptr = np.searchsorted(row, np.arange(n + 1))
    # A sum of one or two floats is already rounded exactly; longer
    # (and overflowing) rows go through math.fsum.
    total = np.bincount(row, weights=value, minlength=n)
    for i in np.flatnonzero((np.diff(indptr) > 2) | ~np.isfinite(total)):
        total[i] = _weight_sum(value[indptr[i] : indptr[i + 1]].tolist())
    if not np.all(np.isfinite(total)):
        raise OverflowError("membership weights sum beyond the float range")
    membership = Membership(
        k=k, labels=labels, indptr=indptr, indices=cell % k, data=value / total[row]
    )
    return membership, total


def _weight_sum(values) -> float:
    """Exactly rounded sum of positive weights; inf beyond the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _overflows(node, col, weight, positive) -> np.ndarray:
    """Mask of the rows from which the weights of their publication
    ``node``, of the rows ``positive`` marks, added up per discipline
    ``col`` in file order as in ``parse_membership``, no longer sum
    exactly to a finite number."""
    cells: dict[int, dict[int, float]] = {}
    mask = np.zeros(len(node), dtype=bool)
    node, col, values = node.tolist(), col.tolist(), weight.tolist()
    for i in np.flatnonzero(positive).tolist():
        cell = cells.setdefault(node[i], {})
        cell[col[i]] = cell.get(col[i], 0.0) + values[i]
        mask[i] = not math.isfinite(_weight_sum(cell.values()))
    return mask

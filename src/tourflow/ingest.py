"""Reading check-in logs and flow matrices, and building mobility graphs.

Two input families are supported.  A *check-in log* is a list of
(user, country, timestamp) events from a location-based service, parsed
into a :class:`CheckinTable`: its users, and one row of user, country
and check-in count per pair, as arrays.  The home country of each user
is inferred from it, and country-to-country flows are counted as
distinct travellers, each step one numpy pass over the rows.
A *flow matrix* is an already-aggregated origin/destination CSV, parsed
straight into the arc arrays of a :class:`tourflow.graph.MobilityGraph`.
"""

from __future__ import annotations

import csv
import io
import json
import os
from array import array
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .errors import ParseError
from .graph import _COUNTRY_CODES, MobilityGraph, _read_only, is_country_code
from .lanes import cpu_count, run_lanes

CHECKIN_FIELDS = ("user_id", "country", "timestamp")

# The smallest byte piece of a check-in log parsed in a lane of its own.
# Measured on 2 vCPUs with the 1M-row benchmark log (28.6 MB, best of 7):
# parsing takes about 0.043 s per MB in one piece; forking and joining a
# lane about 2 ms.  Its 14 MB second half (34,854 users) becomes arrays
# and a 2.6 MB pickle in 26 ms, and unpickling it and merging both
# halves takes 35 ms.  The log's first 2 MB parsed in 0.072 s as two
# 1 MiB pieces, against 0.074 s as one; its first 8 MB in 0.20 s as two
# pieces, against 0.30 s as one.
_MIN_PIECE_BYTES = 1 << 20

# int() reads every integer literal of at most this many characters:
# the smallest digit limit sys.set_int_max_str_digits() accepts, 0 (no
# limit) aside.  Python before 3.10.7 has no limit.
_INT_DIGITS_ALWAYS_READ = 640

# Each two-letter code at its position in ``_COUNTRY_CODES``.
_CODES = tuple(_COUNTRY_CODES)


@dataclass(frozen=True, eq=False)
class CheckinTable:
    """Per-user country counts of a check-in log, as arrays.

    ``user_ids`` lists the users in the order of their first check-in.
    ``visits`` holds one row per (user, country) pair of the log: the
    user's position in ``user_ids`` and the country's position among the
    sorted two-letter codes, sorted by user, then country.
    ``visit_counts`` holds each pair's check-ins, each >= 1, and they
    total at most 2**53.  Both arrays are read-only.  The log's rows
    themselves are not kept, so a table's size is bounded by users x
    countries.  ``skipped`` reports how many malformed rows were dropped
    during a lenient parse; it is 0 after a strict parse.

    :meth:`build` makes a table from ``user -> country -> count``
    mappings, which ``user_country_counts`` gives back as a view for
    tests and library callers; the pipeline reads only the arrays.  Two
    tables are equal when their users' counts and ``skipped`` are, in
    any user order.  The table is not hashable.
    """

    user_ids: tuple[str, ...]
    visits: tuple[np.ndarray, np.ndarray]
    visit_counts: np.ndarray
    skipped: int = 0

    def __post_init__(self) -> None:
        user, country = (_read_only(np.asarray(end, dtype=np.intp)) for end in self.visits)
        counts = _read_only(np.asarray(self.visit_counts, dtype=np.int64))
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "visits", (user, country))
        object.__setattr__(self, "visit_counts", counts)
        if not user.shape == country.shape == counts.shape == (user.size,):
            raise ValueError("visits and visit_counts must be 1-d arrays of one length")
        if ((country < 0) | (country >= len(_CODES))).any():
            raise ValueError("a visit references an unknown country")
        if (np.diff(user * len(_CODES) + country) <= 0).any():
            raise ValueError("visits must be sorted by user, then country, without duplicates")
        if not np.array_equal(user[np.diff(user, prepend=-1) != 0], np.arange(len(self.user_ids))):
            raise ValueError("every user must have a visit, and every visit a listed user")
        if len(set(self.user_ids)) != len(self.user_ids):
            raise ValueError("user_ids must be free of duplicates")
        if (counts < 1).any():
            raise ValueError("every visit count must be >= 1")

    @classmethod
    def build(cls, user_country_counts: Mapping[str, Mapping[str, int]],
              skipped: int = 0) -> CheckinTable:
        """The table of ``user -> country -> count`` mappings, its users in
        the mapping's order.  Each user has a country, each code is a
        two-letter code, each count is a Python int >= 1, and the counts
        total at most 2**53."""
        total = 0
        for user, counts in user_country_counts.items():
            if not counts:
                raise ValueError(f"user {user!r} has no check-in")
            for code, n in counts.items():
                if not is_country_code(code):
                    raise ValueError(f"user {user!r} has invalid country code {code!r}")
                if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                    raise ValueError(f"user {user!r} has non-positive count {n!r} in {code}")
                total += n
        if total > 2**53:
            raise ValueError("check-in counts total more than 2**53")
        per_user = {user: dict(counts) for user, counts in user_country_counts.items()}
        return _merged([(_arrays(per_user), skipped)])

    def __reduce__(self) -> tuple:
        # Rebuilt by the constructor: the arrays come back read-only, the views unbuilt.
        return type(self), (self.user_ids, self.visits, self.visit_counts, self.skipped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckinTable):
            return NotImplemented
        return (self.skipped, self.user_country_counts) == (other.skipped, other.user_country_counts)

    __hash__ = None  # type: ignore[assignment]

    @property
    def record_count(self) -> int:
        """The number of check-ins parsed (malformed rows excluded)."""
        return int(self.visit_counts.sum())

    @property
    def users(self) -> tuple[str, ...]:
        """The user ids, sorted."""
        return tuple(sorted(self.user_ids))

    @cached_property
    def country_totals(self) -> np.ndarray:
        """Each country's check-ins, by position among the sorted codes; read-only."""
        return _read_only(
            np.bincount(self.visits[1], self.visit_counts, len(_CODES)).astype(np.int64))

    @property
    def country_counts(self) -> Mapping[str, int]:
        """``country -> check-ins`` of every country checked into, read-only, in code order."""
        totals = self.country_totals
        return MappingProxyType({_CODES[i]: int(totals[i]) for i in np.flatnonzero(totals)})

    @cached_property
    def user_country_counts(self) -> Mapping[str, Mapping[str, int]]:
        """``user -> country -> check-ins``, read-only: users in ``user_ids``
        order, each user's countries in code order."""
        per_user: dict[str, dict[str, int]] = {user: {} for user in self.user_ids}
        user, country = self.visits
        for u, c, n in zip(user.tolist(), country.tolist(), self.visit_counts.tolist()):
            per_user[self.user_ids[u]][_CODES[c]] = n
        return MappingProxyType({user: MappingProxyType(counts)
                                 for user, counts in per_user.items()})


# A piece's users in the order of their first row, then one row per user
# and country of the piece: user position, country position and count.
_PieceArrays = tuple[list[str], np.ndarray, np.ndarray, np.ndarray]


def _arrays(per_user: dict[str, dict[str, int]]) -> _PieceArrays:
    """A fold's per-user counts as arrays, the rows in the fold's order.

    User positions are int32 and country positions int16, which keeps
    the pickle a lane sends small; :func:`_merged` widens them.
    """
    per_country = per_user.values()
    sizes = np.fromiter(map(len, per_country), np.intp, len(per_user))
    rows = int(sizes.sum())
    country = np.fromiter(map(_COUNTRY_CODES.__getitem__, chain.from_iterable(per_country)),
                          np.int16, rows)
    count = np.fromiter(chain.from_iterable(map(dict.values, per_country)), np.int64, rows)
    return list(per_user), np.repeat(np.arange(len(per_user), dtype=np.int32), sizes), country, count


def _merged(pieces: list[tuple[_PieceArrays, int]]) -> CheckinTable:
    """The table of a log's pieces, given in order, each with its skipped rows.

    Each user takes the position of its first appearance, so the users
    keep the order a serial parse gives them.  One sort of the (user,
    country) keys and one ``add.reduceat`` sum the rows of a pair that
    several pieces hold.
    """
    position: dict[str, int] = {}
    users, countries, counts = [], [], []
    for (names, user, country, count), _ in pieces:
        mapped = np.fromiter((position.setdefault(name, len(position)) for name in names),
                             np.intp, len(names))
        users.append(mapped[user])
        countries.append(country)
        counts.append(count)
    key = np.concatenate(users) * len(_CODES) + np.concatenate(countries)
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return CheckinTable(tuple(position), np.divmod(key[first], len(_CODES)),
                        np.add.reduceat(np.concatenate(counts)[order], first),
                        sum(skipped for _, skipped in pieces))


def _is_int_literal(text: str) -> bool:
    """True where the regex ``[+-]?\\d+$`` matches text without surrounding space.

    ``str.isdecimal`` accepts exactly the digits ``\\d`` does (Unicode
    category Nd), so digits of any script count; ``int()`` reads them all.
    """
    return text.isdecimal() or (text[:1] in ("+", "-") and text[1:].isdecimal())


def _valid_timestamp(text: str) -> bool:
    """True for an integer literal or an ISO-8601 string, as epoch seconds accept them.

    A trailing ``Z`` is accepted.  ``int()`` rejects only literals over
    the interpreter's digit limit, and ``timestamp()`` reads every
    datetime ``fromisoformat`` returns, with or without an offset, so
    neither value is computed.  The integer-literal test is
    :func:`_is_int_literal`'s, written out to save a call per stamp.
    """
    value = text.strip()
    if value.isdecimal() or (value[:1] in ("+", "-") and value[1:].isdecimal()):
        if len(value) > _INT_DIGITS_ALWAYS_READ:
            try:
                int(value)
            except ValueError:
                return False
        return True
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    try:
        datetime.fromisoformat(value)
    except ValueError:
        return False
    return True


class _Span(io.RawIOBase):
    """Bytes ``start`` up to ``end`` of a file, as a raw stream."""

    def __init__(self, path: str | Path, start: int, end: int) -> None:
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= count
        return count

    def close(self) -> None:
        self._file.close()
        super().close()


@contextmanager
def _open_lines(
    source: str | Path | IO[str], span: tuple[int, int] | None = None
) -> Iterator[Iterator[str]]:
    """The lines of a stream, or of a UTF-8 file that is closed on exit.

    Given a byte ``span`` (start, end), only those bytes of the file are
    read.  A file that cannot be opened, or that is not valid UTF-8,
    raises :class:`ParseError`, the latter from the ``with`` block that
    reads it.
    """
    if hasattr(source, "read"):
        yield iter(source)  # type: ignore[arg-type]
        return
    try:
        handle = open(source, "r", encoding="utf-8", newline="") if span is None else (
            io.TextIOWrapper(io.BufferedReader(_Span(source, *span)),
                             encoding="utf-8", newline=""))
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc.strerror or exc}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not valid UTF-8: {exc.reason}") from None


def _csv_width(reader) -> int:
    """The number of fields of a check-in CSV, read from its header row."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("check-in CSV is empty; expected a header row") from None
    except csv.Error as exc:
        raise ParseError(f"check-in CSV header is malformed: {exc}") from None
    header = [col.strip() for col in header]
    if tuple(header[:3]) != CHECKIN_FIELDS or len(header) > 4 or (
        len(header) == 4 and header[3] != "venue_id"
    ):
        raise ParseError(
            "check-in CSV must start with header user_id,country,timestamp[,venue_id]"
        )
    return len(header)


class _NdjsonRows:
    """The rows of an ndjson check-in log, read as ``csv.reader`` reads a CSV.

    An object gives its user, country and timestamp, as strings; a
    malformed line gives a row of one empty field, and a blank line an
    empty row.  A user id must be a JSON string or integer; any other
    value (null, a boolean, a number with a fraction, an array or an
    object) makes the line malformed.  ``line_num`` counts the lines
    read so far.
    """

    def __init__(self, lines: Iterator[str]) -> None:
        self._lines = lines
        self.line_num = 0

    def __iter__(self) -> _NdjsonRows:
        return self

    def __next__(self) -> list[str]:
        line = next(self._lines)
        self.line_num += 1
        if not line.strip():
            return []
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("row is not a JSON object")
            venue = obj.get("venue_id")
            if venue is not None and not isinstance(venue, str):
                raise ValueError("venue_id must be a string")
            user = obj["user_id"]
            if isinstance(user, bool) or not isinstance(user, (str, int)):
                raise ValueError("user_id must be a string or an integer")
            return [str(user), str(obj["country"]), str(obj["timestamp"])]
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
            return [""]


def _rows(lines: Iterator[str], fmt: str, width: int = 0) -> tuple[Iterator[list[str]], int]:
    """A reader of a log's rows, and the number of fields a row must have.

    A CSV's first row is its header, which sets the width, unless a
    ``width`` is given.
    """
    if fmt == "ndjson":
        return _NdjsonRows(lines), len(CHECKIN_FIELDS)
    reader = csv.reader(lines)
    return reader, width or _csv_width(reader)


def _fold(reader, width: int, strict: bool) -> tuple[dict[str, dict[str, int]], int]:
    """Validate each row of ``reader`` and fold it into its user's country counts.

    A row is kept if it has ``width`` fields, a user id that is not
    blank, a country code and a timestamp, each field stripped of
    surrounding space.  An all-decimal stamp of at most
    ``_INT_DIGITS_ALWAYS_READ`` digits is accepted at once; any other
    goes to :func:`_valid_timestamp`, the one timestamp rule.  Empty
    rows (blank lines) are passed over.  A row csv cannot read (an
    oversized field) is malformed, and the reader resumes at the next
    line.  In strict mode the first malformed row raises
    :class:`ParseError` naming ``reader.line_num``, the row's last line;
    otherwise malformed rows are counted.

    Returns the per-user counts, users and each user's countries in the
    order of their first row, and the number of rows skipped.
    """
    per_user: dict[str, dict[str, int]] = {}
    user_counts = per_user.get
    codes, valid, digits = _COUNTRY_CODES, _valid_timestamp, _INT_DIGITS_ALWAYS_READ
    skipped = 0
    while True:
        try:
            for row in reader:
                if len(row) == width:
                    user = row[0].strip()
                    code = row[1].strip()
                    stamp = row[2].strip()
                    if user and code in codes and (
                            stamp.isdecimal() and len(stamp) <= digits or valid(stamp)):
                        counts = user_counts(user)
                        if counts is None:
                            per_user[user] = {code: 1}
                        else:
                            counts[code] = counts.get(code, 0) + 1
                        continue
                elif not row:
                    continue
                if strict:
                    raise ParseError(f"malformed check-in row at line {reader.line_num}")
                skipped += 1
            return per_user, skipped
        except csv.Error:
            if strict:
                raise ParseError(f"malformed check-in row at line {reader.line_num}") from None
            skipped += 1


def _cuts(path: str | Path, fmt: str) -> list[int]:
    """The byte offsets that cut a log file into pieces, its size last.

    One piece per CPU, none smaller than ``_MIN_PIECE_BYTES``.  Each cut
    moves forward to just after a ``\\n`` byte: a line start under
    universal newlines, and a UTF-8 character boundary.  A CSV holding
    a ``"`` byte is one piece, as csv quoting can carry a record across
    lines; so is anything but a regular file.
    """
    try:
        size = os.path.getsize(path) if os.path.isfile(path) else 0
    except OSError:  # gone since; the serial parse reports it
        size = 0
    pieces = min(cpu_count(), size // _MIN_PIECE_BYTES)
    if pieces < 2:
        return [0, size]
    with open(path, "rb") as handle:
        if fmt == "csv" and any(b'"' in chunk for chunk in iter(lambda: handle.read(1 << 20), b"")):
            return [0, size]
        cuts = [0]
        for piece in range(1, pieces):
            handle.seek(size * piece // pieces - 1)
            handle.readline()
            if cuts[-1] < handle.tell() < size:
                cuts.append(handle.tell())
    return cuts + [size]


def _parse_pieces(path: str | Path, fmt: str, strict: bool, cuts: list[int]) -> CheckinTable:
    """Parse each byte piece between ``cuts``, then merge them in order.

    The pieces weigh the same, so :func:`tourflow.lanes.run_lanes` gives
    piece i to lane i, and raises the earliest piece's exception once
    every lane has ended.  Each lane turns its piece's counts into
    arrays (:func:`_arrays`), so a child sends back its users and three
    flat arrays, and :func:`_merged` adds the pieces up.
    """
    width = 0
    if fmt == "csv":
        with _open_lines(path) as lines:
            width = _csv_width(csv.reader(lines))

    def piece(i: int) -> tuple[_PieceArrays, int]:
        with _open_lines(path, (cuts[i], cuts[i + 1])) as lines:
            per_user, skipped = _fold(*_rows(lines, fmt, width if i else 0), strict)
        return _arrays(per_user), skipped

    return _merged(run_lanes(piece, [1] * (len(cuts) - 1), "check-in parse"))


def parse_checkins(
    source: str | Path | IO[str], fmt: str = "csv", strict: bool = True
) -> CheckinTable:
    """Parse a check-in log into a :class:`CheckinTable` in one pass.

    Every row is validated (field count, non-empty user, two-letter
    code, timestamp, and for ndjson a string ``venue_id``) and then
    folded into its user's country counts; no row is kept.

    A log file is cut into one byte piece per CPU of the affinity mask,
    each at least ``_MIN_PIECE_BYTES`` long, and the pieces are parsed
    in lanes (:mod:`tourflow.lanes`) and merged in order, so the table,
    user order included, is the one a serial parse gives.  A stream, or
    a CSV file holding a ``"`` byte, is parsed in one piece.  If any
    piece raises, the file is parsed again in one piece, so errors are
    the serial ones.

    Args:
        source: path to the log, or an open text stream.
        fmt: ``"csv"`` (header ``user_id,country,timestamp[,venue_id]``)
            or ``"ndjson"`` (one object per line with the same keys).
        strict: when True the first malformed row raises
            :class:`ParseError` naming its line number; when False
            malformed rows are skipped and counted.

    Returns:
        The parsed table; ``table.skipped`` holds the number of rows
        dropped in lenient mode.
    """
    if fmt not in ("csv", "ndjson"):
        raise ValueError(f"unknown check-in format {fmt!r}; expected 'csv' or 'ndjson'")
    if isinstance(source, (str, os.PathLike)):
        cuts = _cuts(source, fmt)
        if len(cuts) > 2:
            try:
                return _parse_pieces(source, fmt, strict, cuts)
            except ParseError:
                pass  # parsed again in one piece, which raises the serial error
    with _open_lines(source) as lines:
        per_user, skipped = _fold(*_rows(lines, fmt), strict)
    return _merged([(_arrays(per_user), skipped)])


def infer_homes(table: CheckinTable) -> np.ndarray:
    """Assign each user the country holding most of their check-ins.

    Ties go to the lexicographically smallest country code, so the
    assignment is deterministic.  The table must contain at least one
    record.  Each user's visits are contiguous and in code order, so the
    first that holds the user's most check-ins (one ``maximum.reduceat``)
    is the home.  Returns a read-only int array in ``table.user_ids``
    order: each home as a position among the sorted two-letter codes,
    the index of ``table.visits[1]``.
    """
    if not table.user_ids:
        raise ValueError("cannot infer home countries from an empty check-in table")
    user, country = table.visits
    counts = table.visit_counts
    most = np.maximum.reduceat(counts, np.flatnonzero(np.diff(user, prepend=-1)))
    best = np.flatnonzero(counts == most[user])
    return _read_only(country[best[np.flatnonzero(np.diff(user[best], prepend=-1))]])


def filter_countries(table: CheckinTable, threshold: int = 1000) -> frozenset[str]:
    """Countries whose total check-in count strictly exceeds ``threshold``."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return frozenset(_CODES[i] for i in np.flatnonzero(table.country_totals > threshold).tolist())


def build_mobility_graph(
    table: CheckinTable,
    homes: np.ndarray,
    allowed: Iterable[str],
    label: str = "",
) -> MobilityGraph:
    """Count distinct travellers between home and visited countries.

    ``homes`` holds each user's home as :func:`infer_homes` gives it: a
    position among the sorted two-letter codes, in ``table.user_ids``
    order.  An edge ``home -> visited`` gains one unit per user whose
    home is ``home`` and who has at least one check-in in ``visited``.
    Users whose home country is not in ``allowed`` contribute nothing,
    and visited countries outside ``allowed`` are ignored.  The node set
    is exactly ``allowed`` (isolated countries included), two-letter
    codes as :func:`filter_countries` gives them.  Each visit
    row is one traveller, so one ``bincount`` over home x visited gives
    the arcs.
    """
    homes = np.asarray(homes)
    if homes.shape != (len(table.user_ids),) or homes.dtype.kind not in "iu" or (
            ((homes < 0) | (homes >= len(_CODES))).any()):
        raise ValueError("homes must hold one country position per user of the table")
    nodes = tuple(sorted(set(allowed)))
    # Each code's node, -1 outside ``allowed``.
    code_node = np.full(len(_CODES), -1, np.intp)
    code_node[[_COUNTRY_CODES[code] for code in nodes]] = np.arange(len(nodes))
    user, country = table.visits
    src, dst = code_node[homes][user], code_node[country]
    travelled = (src >= 0) & (dst >= 0) & (src != dst)
    n = len(nodes)
    tally = np.bincount(src[travelled] * n + dst[travelled], minlength=n * n)
    pairs = np.flatnonzero(tally)
    return MobilityGraph(nodes, np.divmod(pairs, n), tally[pairs], label)


def _data_lines(lines: Iterator[str], on_comment: Callable[[str], object] | None) -> Iterator[str]:
    """Each line, a blank or ``#`` line as an empty one, so that csv counts every line."""
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            if on_comment is not None:
                on_comment(stripped[1:].strip())
            yield "\n"
        else:
            yield line if stripped else "\n"


@contextmanager
def read_table(
    source: str | Path | IO[str],
    what: str,
    header: tuple[str, ...] | None = None,
    on_comment: Callable[[str], object] | None = None,
) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """The CSV rows of a strict table (a flow matrix, region map or report), each with its line number.

    Blank and ``#`` lines are skipped; each comment's text after the ``#``
    goes to ``on_comment`` as soon as it is read, before any later row.
    Lines keep their ends (``newline=""``), which csv needs to tell a
    bare ``\\r`` line end from one inside a field.  Line numbers count
    every line of the input, blank and comment lines included; a row's
    is that of its last line.  A line csv cannot read raises
    ``ParseError("<what> line N is malformed: ...")``.  Given a
    ``header``, the first row must be it, and the rows after it are read.
    """
    with _open_lines(source) as lines:
        reader = csv.reader(_data_lines(lines, on_comment))
        rows = ((reader.line_num, row) for row in reader if row)
        try:
            if header is not None:
                first = next(rows, None)
                if first is None:
                    raise ParseError(f"{what} is empty; expected header {','.join(header)}")
                if tuple(col.strip() for col in first[1]) != header:
                    raise ParseError(f"{what} header must be {','.join(header)}")
            yield rows
        except csv.Error as exc:
            raise ParseError(f"{what} line {reader.line_num} is malformed: {exc}") from None


def parse_flow_matrix(source: str | Path | IO[str], label: str = "") -> MobilityGraph:
    """Parse an aggregated flow CSV into a :class:`MobilityGraph`.

    The stream must carry a header ``origin,destination,count`` followed
    by one row per directed edge.  Lines starting with ``#`` are
    comments, except that ``# nodes: AA BB ...`` lines contribute
    (possibly isolated) nodes; :func:`tourflow.graph.export_graph`
    writes such a line so graphs round-trip exactly.  The counts may
    total at most 2**53, which keeps every sum of them exact.

    The rows are folded into int64 arrays of pair keys and counts, with
    no per-edge Python object, then sorted once into the graph's arcs.
    """
    codes = _COUNTRY_CODES
    nodes: set[str] = set()

    def add_nodes(comment: str) -> None:
        if comment.startswith("nodes:"):
            for code in comment[len("nodes:"):].split():
                if not is_country_code(code):
                    raise ParseError(f"invalid country code {code!r} in nodes line")
                nodes.add(code)

    with read_table(source, "flow matrix", ("origin", "destination", "count"), add_nodes) as reader:
        # Each row's pair as origin * len(codes) + destination, over the
        # codes' sorted positions, and its count.
        keys, counts = array("q"), array("q")
        seen = bytearray(len(codes) ** 2)
        total = 0
        for line, row in reader:
            if len(row) != 3:
                raise ParseError(f"flow matrix line {line} has {len(row)} fields, expected 3")
            origin, dest, count_text = (field.strip() for field in row)
            o, d = codes.get(origin), codes.get(dest)
            if o is None or d is None:
                raise ParseError(f"invalid country code in flow matrix line {line}")
            if o == d:
                raise ParseError(f"self-loop {origin}->{dest} in flow matrix line {line}")
            try:
                count = int(count_text) if _is_int_literal(count_text) else 0
            except ValueError:  # more digits than int() converts
                count = 0
            if count < 1:
                raise ParseError(f"count must be a positive integer in flow matrix line {line}")
            total += count
            if total > 2**53:
                raise ParseError(f"counts total more than 2**53 at flow matrix line {line}")
            key = o * len(codes) + d
            if seen[key]:
                raise ParseError(f"duplicate edge {origin}->{dest} in flow matrix line {line}")
            seen[key] = 1
            keys.append(key)
            counts.append(count)
    pairs = np.frombuffer(keys, np.int64)
    order = np.argsort(pairs)
    src, dst = np.divmod(pairs[order], len(codes))
    # The codes in use, endpoints and nodes lines' codes, and their positions among them.
    used = np.zeros(len(codes), dtype=bool)
    used[src] = used[dst] = True
    used[[codes[code] for code in nodes]] = True
    position = np.cumsum(used) - 1
    return MobilityGraph(tuple(_CODES[i] for i in np.flatnonzero(used).tolist()),
                         (position[src], position[dst]), np.frombuffer(counts, np.int64)[order],
                         label)

"""Reading check-in logs and flow matrices, and building mobility graphs.

Two input families are supported.  A *check-in log* is a list of
(user, country, timestamp) events from a location-based service, parsed
into a :class:`CheckinTable`; the home country of each user is inferred
from it and country-to-country flows are counted as distinct travellers.
A *flow matrix* is an already-aggregated origin/destination CSV, parsed
directly into a :class:`tourflow.graph.MobilityGraph`.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import ParseError
from .graph import _COUNTRY_CODES, MobilityGraph, is_country_code
from .lanes import cpu_count, run_lanes

CHECKIN_FIELDS = ("user_id", "country", "timestamp")

# The smallest byte piece of a check-in log parsed in a lane of its own.
# Measured on 2 vCPUs with the 1M-row benchmark log: parsing takes about
# 0.12 s per MB; forking and joining a lane about 7 ms; pickling,
# sending and merging the table of its 14 MB second half (38,845 users,
# a 1.1 MB pickle) 0.21 s.  The log's first 2 MB parsed in 0.20 s as two
# 1 MiB pieces, against 0.27 s as one.
_MIN_PIECE_BYTES = 1 << 20

# int() reads every integer literal of at most this many characters:
# the smallest digit limit sys.set_int_max_str_digits() accepts, 0 (no
# limit) aside.  Python before 3.10.7 has no limit.
_INT_DIGITS_ALWAYS_READ = 640

# user id -> home country code
HomeAssignment = dict[str, str]


@dataclass(frozen=True)
class CheckinTable:
    """Per-user country counts of a check-in log.

    ``user_country_counts[user][country]`` is the number of the user's
    check-ins in that country; the log's rows themselves are not kept,
    so a table's size is bounded by users x countries.  ``skipped``
    reports how many malformed rows were dropped during a lenient parse;
    it is 0 after a strict parse.  ``country_counts`` is computed once
    and cached, so ``user_country_counts`` must not be modified after
    parsing.  The table is not hashable, since it holds a dict.
    """

    user_country_counts: dict[str, dict[str, int]]
    skipped: int = 0

    @cached_property
    def country_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for per_country in self.user_country_counts.values():
            for code, n in per_country.items():
                counts[code] = counts.get(code, 0) + n
        return counts

    @property
    def record_count(self) -> int:
        """The number of check-ins parsed (malformed rows excluded)."""
        return sum(self.country_counts.values())

    @property
    def users(self) -> tuple[str, ...]:
        return tuple(sorted(self.user_country_counts))


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
    neither value is computed.
    """
    value = text.strip()
    if _is_int_literal(value):
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


def _csv_rows(lines: Iterator[str], width: int = 0) -> Iterator[tuple[int, list[str] | None]]:
    """Each row's line number and fields, None for a malformed row.

    Without a ``width`` the first row is the header, which sets it.
    """
    reader = csv.reader(lines)
    width = width or _csv_width(reader)
    while True:
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row if len(row) == width else None
            return
        except csv.Error:  # e.g. an oversized field; the reader resumes at the next line
            yield reader.line_num, None


def _ndjson_rows(lines: Iterator[str]) -> Iterator[tuple[int, tuple[str, str, str] | None]]:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("row is not a JSON object")
            venue = obj.get("venue_id")
            if venue is not None and not isinstance(venue, str):
                raise ValueError("venue_id must be a string")
            fields = (str(obj["user_id"]), str(obj["country"]), str(obj["timestamp"]))
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
            fields = None
        yield lineno, fields


def _fold(
    rows: Iterable[tuple[int, Sequence[str] | None]], strict: bool
) -> tuple[dict[str, dict[str, int]], int]:
    """Validate each row and fold it into its user's country counts; count the skipped rows."""
    per_user: dict[str, dict[str, int]] = {}
    skipped = 0
    for lineno, fields in rows:
        if fields is not None:
            user = fields[0].strip()
            code = fields[1].strip()
            if user and code in _COUNTRY_CODES and _valid_timestamp(fields[2]):
                counts = per_user.get(user)
                if counts is None:
                    counts = per_user[user] = {}
                counts[code] = counts.get(code, 0) + 1
                continue
        if strict:
            raise ParseError(f"malformed check-in row at line {lineno}")
        skipped += 1
    return per_user, skipped


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


def _parse_pieces(
    path: str | Path, fmt: str, strict: bool, cuts: list[int]
) -> tuple[dict[str, dict[str, int]], int]:
    """Parse each byte piece between ``cuts`` in a lane of its own, then merge them in order.

    Raises the first lane's exception, once every lane has ended.
    """
    width = 0
    if fmt == "csv":
        with _open_lines(path) as lines:
            width = _csv_width(csv.reader(lines))

    def piece(lane: int) -> tuple[dict[str, dict[str, int]], int]:
        with _open_lines(path, (cuts[lane], cuts[lane + 1])) as lines:
            rows = _csv_rows(lines, width if lane else 0) if fmt == "csv" else _ndjson_rows(lines)
            return _fold(rows, strict)

    outcomes = run_lanes(piece, len(cuts) - 1, "check-in parse")
    for _, error in outcomes:
        if error is not None:
            raise error
    (per_user, skipped), *rest = (table for table, _ in outcomes)
    # Users, and each user's countries, keep the order of their first appearance.
    for more, more_skipped in rest:
        skipped += more_skipped
        for user, counts in more.items():
            mine = per_user.get(user)
            if mine is None:
                per_user[user] = counts
            else:
                for code, n in counts.items():
                    mine[code] = mine.get(code, 0) + n
    return per_user, skipped


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
    dict order included, is the one a serial parse gives.  A stream, or
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
                return CheckinTable(*_parse_pieces(source, fmt, strict, cuts))
            except ParseError:
                pass  # parsed again in one piece, which raises the serial error
    with _open_lines(source) as lines:
        return CheckinTable(*_fold((_csv_rows if fmt == "csv" else _ndjson_rows)(lines), strict))


def infer_homes(table: CheckinTable) -> HomeAssignment:
    """Assign each user the country holding most of their check-ins.

    Ties go to the lexicographically smallest country code, so the
    assignment is deterministic.  The table must contain at least one
    record.
    """
    if not table.user_country_counts:
        raise ValueError("cannot infer home countries from an empty check-in table")
    homes: HomeAssignment = {}
    for user, counts in table.user_country_counts.items():
        homes[user] = min(counts, key=lambda code: (-counts[code], code))
    return homes


def filter_countries(table: CheckinTable, threshold: int = 1000) -> frozenset[str]:
    """Countries whose total check-in count strictly exceeds ``threshold``."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return frozenset(c for c, n in table.country_counts.items() if n > threshold)


def build_mobility_graph(
    table: CheckinTable,
    homes: HomeAssignment,
    allowed: Iterable[str],
    label: str = "",
) -> MobilityGraph:
    """Count distinct travellers between home and visited countries.

    An edge ``home -> visited`` gains one unit per user whose inferred
    home is ``home`` and who has at least one check-in in ``visited``.
    Users whose home country is not in ``allowed`` contribute nothing,
    and visited countries outside ``allowed`` are ignored.  The node set
    is exactly ``allowed`` (isolated countries included).
    """
    kept = frozenset(allowed)
    edges: dict[tuple[str, str], int] = {}
    for user, counts in table.user_country_counts.items():
        if user not in homes:
            raise ValueError(f"no home assignment for user {user!r}")
        home = homes[user]
        if home not in kept:
            continue
        for country in counts:
            if country != home and country in kept:
                pair = (home, country)
                edges[pair] = edges.get(pair, 0) + 1
    return MobilityGraph(tuple(sorted(kept)), edges, label)


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
    writes such a line so graphs round-trip exactly.
    """
    nodes: set[str] = set()

    def add_nodes(comment: str) -> None:
        if comment.startswith("nodes:"):
            for code in comment[len("nodes:"):].split():
                if not is_country_code(code):
                    raise ParseError(f"invalid country code {code!r} in nodes line")
                nodes.add(code)

    with read_table(source, "flow matrix", ("origin", "destination", "count"), add_nodes) as reader:
        edges: dict[tuple[str, str], int] = {}
        for line, row in reader:
            if len(row) != 3:
                raise ParseError(f"flow matrix line {line} has {len(row)} fields, expected 3")
            origin, dest, count_text = (field.strip() for field in row)
            if not is_country_code(origin) or not is_country_code(dest):
                raise ParseError(f"invalid country code in flow matrix line {line}")
            if origin == dest:
                raise ParseError(f"self-loop {origin}->{dest} in flow matrix line {line}")
            try:
                count = int(count_text) if _is_int_literal(count_text) else 0
            except ValueError:  # more digits than int() converts
                count = 0
            if count < 1:
                raise ParseError(f"count must be a positive integer in flow matrix line {line}")
            pair = (origin, dest)
            if pair in edges:
                raise ParseError(f"duplicate edge {origin}->{dest} in flow matrix line {line}")
            edges[pair] = count
            nodes.add(origin)
            nodes.add(dest)
    return MobilityGraph(tuple(sorted(nodes)), edges, label)

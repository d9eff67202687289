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
import json
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import ParseError
from .graph import _COUNTRY_CODES, MobilityGraph, is_country_code

CHECKIN_FIELDS = ("user_id", "country", "timestamp")

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


def _parse_timestamp(text: str) -> int:
    """Epoch seconds from an integer literal or an ISO-8601 string.

    Naive datetimes are taken as UTC; a trailing ``Z`` is accepted.
    """
    value = text.strip()
    if _is_int_literal(value):
        return int(value)
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    stamp = datetime.fromisoformat(value)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


@contextmanager
def _open_lines(source: str | Path | IO[str]) -> Iterator[Iterator[str]]:
    """The lines of a stream, or of a UTF-8 file that is closed on exit.

    A file that cannot be opened, or that is not valid UTF-8, raises
    :class:`ParseError`, the latter from the ``with`` block that reads it.
    """
    if hasattr(source, "read"):
        yield iter(source)  # type: ignore[arg-type]
        return
    try:
        handle = open(source, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc.strerror or exc}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not valid UTF-8: {exc.reason}") from None


def _csv_rows(lines: Iterator[str]) -> Iterator[tuple[int, list[str] | None]]:
    reader = csv.reader(lines)
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
    width = len(header)
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


def parse_checkins(
    source: str | Path | IO[str], fmt: str = "csv", strict: bool = True
) -> CheckinTable:
    """Parse a check-in log into a :class:`CheckinTable` in one pass.

    Every row is validated (field count, non-empty user, two-letter
    code, timestamp, and for ndjson a string ``venue_id``) and then
    folded into its user's country counts; no row is kept.

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
    per_user: dict[str, dict[str, int]] = {}
    skipped = 0
    with _open_lines(source) as lines:
        for lineno, fields in (_csv_rows if fmt == "csv" else _ndjson_rows)(lines):
            if fields is not None:
                user = fields[0].strip()
                code = fields[1].strip()
                try:
                    _parse_timestamp(fields[2])
                except (ValueError, OverflowError):
                    pass
                else:
                    if user and code in _COUNTRY_CODES:
                        counts = per_user.get(user)
                        if counts is None:
                            counts = per_user[user] = {}
                        counts[code] = counts.get(code, 0) + 1
                        continue
            if strict:
                raise ParseError(f"malformed check-in row at line {lineno}")
            skipped += 1
    return CheckinTable(per_user, skipped)


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
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            if on_comment is not None:
                on_comment(stripped[1:].strip())
        elif stripped:
            yield line


@contextmanager
def read_table(
    source: str | Path | IO[str],
    what: str,
    header: tuple[str, ...] | None = None,
    on_comment: Callable[[str], object] | None = None,
) -> Iterator[Iterator[list[str]]]:
    """The CSV rows of a strict table: a flow matrix, region map or report.

    Blank and ``#`` lines are skipped; each comment's text after the ``#``
    goes to ``on_comment`` as soon as it is read, before any later row.
    Lines keep their ends (``newline=""``), which csv needs to tell a
    bare ``\\r`` line end from one inside a field.  A line csv cannot
    read raises ``ParseError("<what> line N is malformed: ...")``, N
    counting the lines that are neither blank nor comments.  Given a
    ``header``, the first row must be it, and the rows after it are read.
    """
    with _open_lines(source) as lines:
        reader = csv.reader(_data_lines(lines, on_comment))
        try:
            if header is not None:
                first = next(reader, None)
                if first is None:
                    raise ParseError(f"{what} is empty; expected header {','.join(header)}")
                if tuple(col.strip() for col in first) != header:
                    raise ParseError(f"{what} header must be {','.join(header)}")
            yield reader
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
        for rownum, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ParseError(f"flow matrix row {rownum} has {len(row)} fields, expected 3")
            origin, dest, count_text = (field.strip() for field in row)
            if not is_country_code(origin) or not is_country_code(dest):
                raise ParseError(f"invalid country code in flow matrix row {rownum}")
            if origin == dest:
                raise ParseError(f"self-loop {origin}->{dest} in flow matrix row {rownum}")
            try:
                count = int(count_text) if _is_int_literal(count_text) else 0
            except ValueError:  # more digits than int() converts
                count = 0
            if count < 1:
                raise ParseError(f"count must be a positive integer in flow matrix row {rownum}")
            pair = (origin, dest)
            if pair in edges:
                raise ParseError(f"duplicate edge {origin}->{dest} in flow matrix row {rownum}")
            edges[pair] = count
            nodes.add(origin)
            nodes.add(dest)
    return MobilityGraph(tuple(sorted(nodes)), edges, label)

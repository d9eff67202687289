"""Check-in parsing, home inference, thresholding and graph building."""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourflow import (
    CheckinTable,
    MobilityGraph,
    ParseError,
    RegionMap,
    build_mobility_graph,
    filter_countries,
    infer_homes,
    parse_checkins,
    parse_flow_matrix,
)
from tourflow import ingest
from tourflow.cli import EXIT_OK, EXIT_PARSE, main
from tourflow.graph import is_country_code
from tourflow.ingest import CHECKIN_FIELDS, _is_int_literal, _valid_timestamp

from oracles import (
    COUNTRY_CODE_RE,
    INT_LITERAL_RE,
    codes_for,
    min_key_homes,
    pair_tally_edges,
    per_user_country_totals,
    regex_parse_timestamp,
)


def csv_stream(rows: list[str], header: str = "user_id,country,timestamp") -> io.StringIO:
    return io.StringIO("\n".join([header, *rows]) + "\n")


def synthetic_checkin_text(rng: np.random.Generator, n_users: int, countries: tuple[str, ...]) -> tuple[str, list[tuple[str, str]]]:
    """CSV text plus the underlying (user, country) event list."""
    events: list[tuple[str, str]] = []
    lines = ["user_id,country,timestamp"]
    stamp = 1_500_000_000
    for u in range(n_users):
        user = f"u{u:04d}"
        for _ in range(int(rng.integers(1, 9))):
            country = countries[int(rng.integers(0, len(countries)))]
            events.append((user, country))
            lines.append(f"{user},{country},{stamp}")
            stamp += 60
    return "\n".join(lines) + "\n", events


class TestParseCheckins:
    def test_header_only_gives_empty_table(self) -> None:
        table = parse_checkins(csv_stream([]))
        assert table.user_country_counts == {}
        assert table.record_count == 0
        assert table.skipped == 0

    def test_missing_header_rejected(self) -> None:
        with pytest.raises(ParseError, match="header"):
            parse_checkins(io.StringIO("u1,US,100\n"))

    def test_lenient_counts_bad_country_name(self) -> None:
        rows = ["u1,US,100", "u2,Germany,200", "u3,FR,300", "u4,BR,400"]
        table = parse_checkins(csv_stream(rows), strict=False)
        assert table.record_count == 3
        assert table.skipped == 1

    def test_strict_reports_line_number(self) -> None:
        rows = ["u1,US,100", "u2,Germany,200"]
        with pytest.raises(ParseError, match="line 3"):
            parse_checkins(csv_stream(rows))

    def test_timestamp_formats(self) -> None:
        stamps = [
            "1500000000",
            "2017-07-14T02:40:00Z",
            "2017-07-14T02:40:00+00:00",
            "2017-07-14T02:40:00",
        ]
        assert [regex_parse_timestamp(stamp) for stamp in stamps] == [1500000000] * 4
        assert all(_valid_timestamp(stamp) for stamp in stamps)
        rows = [f"u{i},US,{stamp}" for i, stamp in enumerate(stamps)]
        table = parse_checkins(csv_stream(rows))
        assert table.record_count == 4
        assert table.user_country_counts == {f"u{i}": {"US": 1} for i in range(4)}

    def test_venue_column_optional(self) -> None:
        table = parse_checkins(
            csv_stream(["u1,US,100,v42", "u2,FR,200,"],
                       header="user_id,country,timestamp,venue_id")
        )
        assert table.user_country_counts == {"u1": {"US": 1}, "u2": {"FR": 1}}

    def test_ndjson_parsing(self) -> None:
        lines = [
            json.dumps({"user_id": "u1", "country": "US", "timestamp": "100"}),
            json.dumps({"user_id": "u2", "country": "FR", "timestamp": 200, "venue_id": "v9"}),
        ]
        table = parse_checkins(io.StringIO("\n".join(lines)), fmt="ndjson")
        assert table.user_country_counts == {"u1": {"US": 1}, "u2": {"FR": 1}}

    def test_ndjson_non_string_venue_is_malformed(self) -> None:
        lines = [
            json.dumps({"user_id": "u1", "country": "US", "timestamp": 1, "venue_id": "v1"}),
            json.dumps({"user_id": "u2", "country": "FR", "timestamp": 2, "venue_id": 9}),
        ]
        table = parse_checkins(io.StringIO("\n".join(lines)), fmt="ndjson", strict=False)
        assert (table.user_country_counts, table.skipped) == ({"u1": {"US": 1}}, 1)
        with pytest.raises(ParseError, match="line 2"):
            parse_checkins(io.StringIO("\n".join(lines)), fmt="ndjson")

    @pytest.mark.parametrize("user", [None, True, 1.5, ["x"], {}],
                             ids=["null", "bool", "float", "array", "object"])
    def test_ndjson_user_id_that_is_not_an_id_is_malformed(self, user) -> None:
        lines = [
            json.dumps({"user_id": 7, "country": "US", "timestamp": 1}),
            json.dumps({"user_id": user, "country": "FR", "timestamp": 2}),
        ]
        table = parse_checkins(io.StringIO("\n".join(lines)), fmt="ndjson", strict=False)
        assert (table.user_country_counts, table.skipped) == ({"7": {"US": 1}}, 1)
        with pytest.raises(ParseError, match="line 2"):
            parse_checkins(io.StringIO("\n".join(lines)), fmt="ndjson")

    def test_ndjson_bad_row_strict(self) -> None:
        with pytest.raises(ParseError, match="line 2"):
            parse_checkins(io.StringIO('{"user_id": "u1", "country": "US", "timestamp": 1}\n{broken\n'),
                           fmt="ndjson")

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown check-in format"):
            parse_checkins(io.StringIO(""), fmt="xml")

    def test_counts_match_independent_tally(self) -> None:
        rng = np.random.default_rng(42)
        text, events = synthetic_checkin_text(rng, 1500, codes_for(12))
        table = parse_checkins(io.StringIO(text))
        assert table.record_count == len(events)
        tally: dict[str, int] = {}
        per_user: dict[str, dict[str, int]] = {}
        for user, country in events:
            tally[country] = tally.get(country, 0) + 1
            per_user.setdefault(user, {})
            per_user[user][country] = per_user[user].get(country, 0) + 1
        assert table.country_counts == tally
        assert table.user_country_counts == per_user


# Characters on both sides of each check: ASCII and non-ASCII upper case
# (À, ǅ titlecase), decimal digits of other scripts (Arabic-Indic ١, Extended
# Arabic-Indic ۰, NKo ߀), a digit that is not decimal (²), and the
# separators, signs and whitespace int() and strip() treat specially.
_CHECK_CHARS = "AZaz\u00c0\u01c5\u0130059\u0661\u06f0\u07c0\u00b2_+- \t\n\r\x0b\x85\xa0:TZ"


# Timestamps: digits of any script, signs, space, ISO stamps with and
# without a zone, and junk.
_STAMPS = st.one_of(
    st.text(alphabet=_CHECK_CHARS, max_size=8),
    st.integers().map(str),
    st.from_regex(r"\s?[+-]?\d{1,4}\s?", fullmatch=True),
    st.builds(lambda stamp, zone: stamp.isoformat() + zone,
              st.datetimes(), st.sampled_from(["", "Z", "+00:00", "-05:30", "ZZ", "+24:00"])),
    st.text(max_size=6),
)


class TestFastChecks:
    """The per-row checks give exactly what the regexes they replace give."""

    @given(text=st.text(alphabet=_CHECK_CHARS, max_size=5) | st.text(max_size=3))
    @example(text="AB\n")
    @example(text="\u00c0B")
    @example(text="\u01c5A")
    @settings(max_examples=500, deadline=None)
    def test_country_code_check_equals_regex(self, text: str) -> None:
        expected = bool(COUNTRY_CODE_RE.match(text.strip()))
        assert is_country_code(text.strip()) == expected
        row = json.dumps({"user_id": "u1", "country": text, "timestamp": 1})
        table = parse_checkins(io.StringIO(row + "\n"), fmt="ndjson", strict=False)
        assert table.record_count == int(expected)

    @given(text=st.text(alphabet=_CHECK_CHARS, max_size=8) | st.integers().map(str))
    @example(text="\u0661\u0662\u0663")
    @example(text="\u00b2")
    @example(text="1_000")
    @example(text="+42")
    @example(text="-42")
    @example(text="+-42")
    @example(text="+")
    @example(text=" 7\n")
    @example(text="9" * 5000)
    @example(text="-" + "9" * 4300)
    @example(text="9" * 640 + " ")
    @example(text="0001-01-01T00:00:00+23:59")
    @example(text="9999-12-31T23:59:59.999999-23:59")
    @example(text="2017-07-14T02:40:00ZZ")
    @example(text="Z")
    @settings(max_examples=500, deadline=None)
    def test_integer_timestamp_check_equals_regex(self, text: str) -> None:
        assert _is_int_literal(text.strip()) == bool(INT_LITERAL_RE.match(text.strip()))
        try:
            regex_parse_timestamp(text)
        except (ValueError, OverflowError):
            expected = False
        else:
            expected = True
        assert _valid_timestamp(text) == expected

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_digit_limit_decides_long_integer_timestamps(self, limit: int) -> None:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for digits in (639, 640, 641, 4300, 4301):
                try:
                    regex_parse_timestamp("9" * digits)
                except ValueError:
                    expected = False
                else:
                    expected = True
                assert _valid_timestamp("9" * digits) == expected
                assert expected == (not limit or digits <= limit)
            # The fold's own test for short stamps stops at 640 digits.
            lengths = (639, 640, 641, 4300, 4301)
            table = parse_checkins(csv_stream([f"u{n},US,{'9' * n}" for n in lengths]),
                                   strict=False)
            assert table.users == tuple(sorted(f"u{n}" for n in lengths
                                               if not limit or n <= limit))
        finally:
            sys.set_int_max_str_digits(previous)

    def test_oversized_integer_timestamp_is_a_skipped_row(self) -> None:
        text = "\n".join(["user_id,country,timestamp", "u1,US,1", "u2,US," + "9" * 5000]) + "\n"
        table = parse_checkins(io.StringIO(text), strict=False)
        assert (table.user_country_counts, table.skipped) == ({"u1": {"US": 1}}, 1)
        with pytest.raises(ParseError, match="line 3"):
            parse_checkins(io.StringIO(text))

    @given(stamps=st.lists(_STAMPS, min_size=1, max_size=6), cpus=st.integers(2, 4))
    @example(stamps=["9" * 640, "9" * 641, " 9" + "9" * 639 + " ", "-" + "9" * 641], cpus=2)
    @example(stamps=["\u0661\u0662", " 7\t", "+5", "-5", "+-5", "", " ", "\u00b2"], cpus=3)
    @example(stamps=["2017-07-14T02:40:00", "2017-07-14T02:40:00Z", "2017-07-14T02:40:00+02:00",
                     "2017-07-14T02:40:00ZZ", "2019-02-30T12:00:00Z", "Z", "x1"], cpus=4)
    @settings(max_examples=200, deadline=None)
    def test_fold_keeps_a_stamp_exactly_when_valid(self, fuzz_file, stamps, cpus: int) -> None:
        # Row i is user u<i>'s one check-in, so the table names the rows kept.
        # A line end in a CSV field is the csv module's business, not the
        # fold's: ndjson carries those stamps.
        rows = [(f"u{i}", "US", stamp) for i, stamp in enumerate(stamps)]
        csv_rows = [row for row in rows if "\r" not in row[2] and "\n" not in row[2]]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([CHECKIN_FIELDS, *csv_rows])
        for fmt, log, logged in (
            ("csv", text.getvalue(), csv_rows),
            ("ndjson", "".join(ndjson_line(*row) + "\n" for row in rows), rows),
        ):
            valid = [_valid_timestamp(stamp) for _, _, stamp in logged]
            expected = ([(user, [("US", 1)]) for (user, _, _), ok in zip(logged, valid) if ok],
                        valid.count(False))
            assert in_order(parse_checkins(io.StringIO(log), fmt=fmt, strict=False)) == expected
            fuzz_file.write_text(log, encoding="utf-8", newline="")
            # A CSV holding a quote (a field with a comma or quote) is one piece.
            assert piece_outcome(fuzz_file, cpus, fmt, strict=False)[0] == expected


# Fields of check-in events, some of them malformed: a bad code, a bad
# timestamp or an empty user id; None marks an event with no timestamp.
_EVENTS = st.lists(st.tuples(
    st.sampled_from(["u1", "u2", " u3 ", "u,4", " "]),
    st.sampled_from(["US", "FR", " DE ", "us", "Germany", ""]),
    st.sampled_from(["100", "-5", "2017-07-14T02:40:00Z", "2019-02-30T12:00:00Z", "x", None]),
), max_size=12)


class TestStreamingParse:
    @given(events=_EVENTS)
    @settings(max_examples=200, deadline=None)
    def test_csv_and_ndjson_give_equal_tables(self, events) -> None:
        csv_text = io.StringIO()
        writer = csv.writer(csv_text, lineterminator="\n")
        writer.writerow(["user_id", "country", "timestamp"])
        ndjson_lines = []
        for user, country, stamp in events:
            # A missing timestamp is a row of the wrong width in CSV.
            writer.writerow([user, country] if stamp is None else [user, country, stamp])
            event = {"user_id": user, "country": country}
            if stamp is not None:
                event["timestamp"] = stamp
            ndjson_lines.append(json.dumps(event))
        from_csv = parse_checkins(io.StringIO(csv_text.getvalue()), strict=False)
        from_ndjson = parse_checkins(io.StringIO("\n".join(ndjson_lines)), fmt="ndjson",
                                     strict=False)
        assert from_csv == from_ndjson
        assert from_csv.record_count + from_csv.skipped == len(events)

    @pytest.mark.parametrize("row", [
        pytest.param("u3,US", id="width"),
        pytest.param("u3,Germany,300", id="code"),
        pytest.param("u3,US,2019-02-30T12:00:00Z", id="timestamp"),
        pytest.param("u3," + "U" * ((1 << 17) + 1) + ",300", id="oversized-field"),
    ])
    def test_strict_line_number_of_each_malformed_kind(self, row: str) -> None:
        # Line 1 header, 2-3 one row with a quoted line break, 4 blank, 5 the bad row.
        text = "\n".join(["user_id,country,timestamp", '"u\n1",US,100', "", row, "u4,US,400"])
        with pytest.raises(ParseError, match="line 5$"):
            parse_checkins(io.StringIO(text + "\n"))
        table = parse_checkins(io.StringIO(text + "\n"), strict=False)
        assert (table.record_count, table.skipped) == (2, 1)

    def test_memory_is_bounded_by_users_and_countries(self) -> None:
        rows = 200_000
        lines = ["user_id,country,timestamp,venue_id\n"]
        lines += [f"u{i % 10},{('US', 'FR', 'DE')[i % 3]},{1_500_000_000 + i},v{i}\n"
                  for i in range(rows)]
        stream = io.StringIO("".join(lines))
        del lines
        tracemalloc.start()
        try:
            table = parse_checkins(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.record_count == rows
        assert len(table.user_country_counts) == 10
        # Keeping a record per row would need tens of MB here.
        assert peak < 2_000_000


@contextmanager
def lanes_of(cpus: int, piece_bytes: int = 1):
    """An affinity mask of ``cpus`` CPUs and log pieces from ``piece_bytes`` up.

    Yields the pids of the processes forked meanwhile.
    """
    pids: list[int] = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(os, "fork", counted)
        patch.setattr(ingest, "_MIN_PIECE_BYTES", piece_bytes)
        yield pids
    assert multiprocessing.active_children() == []


def in_order(table: CheckinTable) -> tuple[list, int]:
    """A table's users and countries in dict order, and its skipped count."""
    return [(user, list(counts.items())) for user, counts in
            table.user_country_counts.items()], table.skipped


def serial_outcome(path: Path, fmt: str = "csv", strict: bool = True) -> tuple[list, int] | str:
    """The table of a one-CPU parse, or its error message."""
    with lanes_of(1) as pids:
        try:
            return in_order(parse_checkins(path, fmt=fmt, strict=strict))
        except ParseError as exc:
            return str(exc)
        finally:
            assert pids == []


def piece_outcome(
    path: Path, cpus: int, fmt: str = "csv", strict: bool = True, piece_bytes: int = 1
) -> tuple[tuple[list, int] | str, int]:
    """The table of a parse in up to ``cpus`` pieces, or its error message; and the forks made."""
    with lanes_of(cpus, piece_bytes) as pids:
        try:
            return in_order(parse_checkins(path, fmt=fmt, strict=strict)), len(pids)
        except ParseError as exc:
            return str(exc), len(pids)


def ndjson_line(user: str, country: str, stamp: str | None) -> str:
    event = {"user_id": user, "country": country}
    if stamp is not None:
        event["timestamp"] = stamp
    return json.dumps(event)


# Line ends of a log file: csv and the text layer also end a line at a lone \r.
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


class TestPieces:
    """A log file parsed in byte pieces, one lane each, gives the one-piece table."""

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @given(events=_EVENTS, ends=st.lists(_ENDS, min_size=14, max_size=14),
           blanks=st.sets(st.integers(0, 13)), cpus=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_pieces_give_the_serial_table(
        self, fuzz_file, fmt: str, events, ends, blanks, cpus: int
    ) -> None:
        # No quotes: a field with a comma is cut at it, one more way to be malformed.
        lines = (["user_id,country,timestamp"] if fmt == "csv" else []) + [
            (",".join([user, country] if stamp is None else [user, country, stamp])
             if fmt == "csv" else ndjson_line(user, country, stamp))
            for user, country, stamp in events]
        fuzz_file.write_text("".join(
            line + ends[i] + ("\n" if i in blanks else "") for i, line in enumerate(lines)),
            newline="")
        serial = serial_outcome(fuzz_file, fmt, strict=False)
        assert piece_outcome(fuzz_file, cpus, fmt, strict=False)[0] == serial
        assert isinstance(serial, tuple)

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @given(events=_EVENTS, cpus=st.integers(2, 4))
    @example(events=[("u1", "US", "100"), ("u2", "FR", "100"), ("u1", "FR", "-5")] * 4, cpus=3)
    @settings(max_examples=30, deadline=None)
    def test_country_totals_equal_the_per_user_loop(
        self, fuzz_file, fmt: str, events, cpus: int
    ) -> None:
        # Lanes sum their own pieces' totals; a table built by hand sums its users'.
        lines = (["user_id,country,timestamp"] if fmt == "csv" else []) + [
            (",".join([user, country] if stamp is None else [user, country, stamp])
             if fmt == "csv" else ndjson_line(user, country, stamp))
            for user, country, stamp in events]
        fuzz_file.write_text("".join(line + "\n" for line in lines))
        with lanes_of(1):
            serial = parse_checkins(fuzz_file, fmt=fmt, strict=False)
        with lanes_of(cpus):
            pieces = parse_checkins(fuzz_file, fmt=fmt, strict=False)
        expected = per_user_country_totals(serial.user_country_counts)
        for table in (serial, pieces, CheckinTable(serial.user_country_counts)):
            assert table.country_counts == expected
            assert table.record_count == sum(expected.values())

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    def test_a_piece_per_line(self, tmp_path: Path, fmt: str) -> None:
        # As many CPUs as bytes: every \n ends a piece, after a CRLF, a blank
        # line and the header line alike; lone \r ends stay inside pieces.
        rows = [("u1", "US", "1"), ("u2", "FR", "2"), ("u1", "FR", "x"), ("u3", "DE", "3"),
                ("u2", "US", "4"), ("u1", "US", "5"), ("u4", "us", "6"), ("u3", "US", "7")]
        lines = ["user_id,country,timestamp"] if fmt == "csv" else []
        lines += [",".join(row) if fmt == "csv" else ndjson_line(*row) for row in rows]
        ends = ["\r\n", "\n", "\n\n", "\r", "\r\n\r\n", "\n", "\r", "\n", "\n"]
        path = tmp_path / f"log.{fmt}"
        path.write_text("".join(line + end for line, end in zip(lines, ends)), newline="")
        size = path.stat().st_size
        serial = serial_outcome(path, fmt, strict=False)
        assert serial == ([("u1", [("US", 2)]), ("u2", [("FR", 1), ("US", 1)]),
                           ("u3", [("DE", 1), ("US", 1)])], 2)
        with lanes_of(size) as pids:
            assert in_order(parse_checkins(path, fmt=fmt, strict=False)) == serial
        newlines = path.read_bytes().count(b"\n")
        assert len(pids) == newlines - 1  # each \n but the last ends a piece

    def test_csv_holding_a_quote_is_one_piece(self, tmp_path: Path) -> None:
        path = tmp_path / "log.csv"
        path.write_text('user_id,country,timestamp\n"u1",US,1\nu2,"F\nR",2\nu3,DE,3\n')
        serial = serial_outcome(path, strict=False)
        assert serial == ([("u1", [("US", 1)]), ("u3", [("DE", 1)])], 1)
        with lanes_of(64) as pids:
            assert in_order(parse_checkins(path, strict=False)) == serial
        assert pids == []

    def test_stream_is_one_piece(self) -> None:
        with lanes_of(64) as pids:
            table = parse_checkins(csv_stream(["u1,US,1", "u2,FR,2", "u3,DE,3"]))
        assert (table.record_count, pids) == (3, [])

    def test_one_cpu_forks_nothing(self, tmp_path: Path, one_cpu, monkeypatch) -> None:
        monkeypatch.setattr(ingest, "_MIN_PIECE_BYTES", 1)
        path = tmp_path / "log.csv"
        path.write_text("user_id,country,timestamp\n" + "u1,US,1\n" * 1000)
        assert parse_checkins(path).record_count == 1000

    def test_pieces_follow_the_cpu_count_and_the_floor(self, tmp_path: Path) -> None:
        path = tmp_path / "log.csv"
        path.write_text("user_id,country,timestamp\n" + "u1,US,1\n" * 1000)  # 8026 bytes
        for cpus, floor, forks in ((4, 1, 3), (4, 2500, 2), (4, 4013, 1), (4, 4014, 0), (2, 1, 1)):
            with lanes_of(cpus, floor) as pids:
                assert parse_checkins(path).record_count == 1000
            assert len(pids) == forks

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @pytest.mark.parametrize("faults", [
        pytest.param({2: "malformed"}, id="malformed-in-piece-2"),
        pytest.param({1: "malformed", 2: "not-utf8"}, id="malformed-then-not-utf8"),
        pytest.param({1: "not-utf8", 2: "malformed"}, id="not-utf8-then-malformed"),
    ])
    @pytest.mark.parametrize("strict", [True, False])
    def test_a_failing_piece_gives_the_serial_error(
        self, tmp_path: Path, fmt: str, faults: dict, strict: bool
    ) -> None:
        # Pieces 0, 1 and 2 of 1000 rows each, over 8 KiB, so that the text
        # layer's read-ahead stays inside a piece; row 500 of a piece carries
        # its fault.
        def row(i: int) -> bytes:
            return (b"u%d,US,%d" % (i, i) if fmt == "csv" else
                    b'{"user_id": "u%d", "country": "US", "timestamp": %d}' % (i, i))

        pieces = [[row(1000 * p + i) for i in range(1000)] for p in range(3)]
        for p, fault in faults.items():
            if fault == "malformed":
                pieces[p][500] = b"u,Germany,1" if fmt == "csv" else b"[1]"
            else:
                pieces[p][500] += b"\xff"
        header = b"user_id,country,timestamp\n" if fmt == "csv" else b""
        path = tmp_path / "log"
        path.write_bytes(header + b"".join(line + b"\n" for piece in pieces for line in piece))
        serial = serial_outcome(path, fmt, strict)
        assert piece_outcome(path, 3, fmt, strict) == (serial, 2)
        first = min(faults)
        if strict and faults[first] == "malformed":
            assert serial == f"malformed check-in row at line {1000 * first + 501 + bool(header)}"
        elif "not-utf8" in faults.values():
            assert serial == f"{path} is not valid UTF-8: invalid start byte"
        else:
            assert serial[1] == 1

    @pytest.mark.parametrize("row", [
        pytest.param("u3,US", id="width"),
        pytest.param("u3,Germany,300", id="code"),
        pytest.param("u3,US,2019-02-30T12:00:00Z", id="timestamp"),
        pytest.param("u3," + "U" * ((1 << 17) + 1) + ",300", id="oversized-field"),
    ])
    def test_strict_line_number_in_pieces(self, tmp_path: Path, row: str) -> None:
        # The bad row is line 31 of 41; the file is cut in up to four pieces.
        lines = ["user_id,country,timestamp"] + [f"u{i},US,{i}" for i in range(40)]
        lines[30] = row
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        message = "malformed check-in row at line 31"
        outcome, forks = piece_outcome(path, 4)
        assert (outcome, forks > 0) == (message, True)
        assert serial_outcome(path) == message
        assert piece_outcome(path, 4, strict=False)[0] == serial_outcome(path, strict=False)

    def test_bad_header_gives_the_serial_error(self, tmp_path: Path) -> None:
        path = tmp_path / "log.csv"
        path.write_text("user_id,country\n" + "u1,US,1\n" * 100)
        assert piece_outcome(path, 4) == (serial_outcome(path), 0)  # read before any fork
        assert serial_outcome(path) == (
            "check-in CSV must start with header user_id,country,timestamp[,venue_id]")

    def test_lane_that_dies_fails_build(self, tmp_path: Path, monkeypatch) -> None:
        log = tmp_path / "log.csv"
        log.write_text("user_id,country,timestamp\n" + "u1,US,1\nu2,FR,2\n" * 500)
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_checkins={log}", "--set", f"output_dir={out}",
                "--set", "checkin_threshold=0"]
        assert main(["build", *base]) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        fold, parent = ingest._fold, os.getpid()

        def dying(reader, width, strict):
            if os.getpid() != parent:
                os._exit(3)
            return fold(reader, width, strict)

        monkeypatch.setattr(ingest, "_fold", dying)
        with lanes_of(2) as pids:
            with pytest.raises(RuntimeError,
                               match="check-in parse lane 1 exited with code 3 before reporting"):
                main(["build", *base, "--set", "seed=1"])
        assert len(pids) == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# Per-user country counts over few codes and small counts, so that homes tie.
_TABLES = st.dictionaries(
    st.sampled_from([f"u{i}" for i in range(12)]),
    st.dictionaries(st.sampled_from(codes_for(5)), st.integers(1, 3), min_size=1),
    min_size=1,
).map(CheckinTable)


class TestInferHomes:
    def test_majority_wins(self) -> None:
        rows = ["u1,TR,1"] * 5 + ["u1,US,2"] * 2
        table = parse_checkins(csv_stream([f"u1,TR,{i}" for i in range(5)] + [f"u1,US,{i}" for i in range(2)]))
        assert infer_homes(table)["u1"] == "TR"

    def test_tie_breaks_lexicographically(self) -> None:
        table = parse_checkins(csv_stream(["u2,BR,1", "u2,AR,2", "u2,BR,3", "u2,AR,4"]))
        assert infer_homes(table)["u2"] == "AR"

    def test_empty_table_rejected(self) -> None:
        with pytest.raises(ValueError, match="empty"):
            infer_homes(CheckinTable({}))

    def test_matches_brute_force_argmax(self) -> None:
        rng = np.random.default_rng(7)
        text, events = synthetic_checkin_text(rng, 500, codes_for(8))
        table = parse_checkins(io.StringIO(text))
        homes = infer_homes(table)
        per_user: dict[str, dict[str, int]] = {}
        for user, country in events:
            per_user.setdefault(user, {})
            per_user[user][country] = per_user[user].get(country, 0) + 1
        for user, counts in per_user.items():
            best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            assert homes[user] == best

    @given(table=_TABLES)
    @settings(max_examples=300, deadline=None)
    def test_matches_min_key_oracle(self, table: CheckinTable) -> None:
        expected = min_key_homes(table.user_country_counts)
        assert list(infer_homes(table).items()) == list(expected.items())

    def test_home_count_dominates_all_others(self) -> None:
        rng = np.random.default_rng(8)
        text, _ = synthetic_checkin_text(rng, 300, codes_for(6))
        table = parse_checkins(io.StringIO(text))
        for user, home in infer_homes(table).items():
            counts = table.user_country_counts[user]
            assert all(counts[home] >= c for c in counts.values())


class TestFilterCountries:
    def test_threshold_zero_keeps_every_active_country(self) -> None:
        table = parse_checkins(csv_stream(["u1,US,1", "u2,FR,2"]))
        assert filter_countries(table, 0) == {"US", "FR"}

    def test_exactly_at_threshold_excluded(self) -> None:
        rows = [f"u{i},US,{i}" for i in range(1000)] + [f"v{i},FR,{i}" for i in range(1001)]
        table = parse_checkins(csv_stream(rows))
        assert filter_countries(table, 1000) == {"FR"}

    def test_negative_threshold_rejected(self) -> None:
        with pytest.raises(ValueError, match="threshold"):
            filter_countries(CheckinTable({}), -1)

    def test_matches_recount(self) -> None:
        rng = np.random.default_rng(5)
        text, events = synthetic_checkin_text(rng, 800, codes_for(10))
        table = parse_checkins(io.StringIO(text))
        threshold = 400
        expected = set()
        tally: dict[str, int] = {}
        for _, country in events:
            tally[country] = tally.get(country, 0) + 1
        expected = {c for c, n in tally.items() if n > threshold}
        assert filter_countries(table, threshold) == expected


class TestBuildMobilityGraph:
    def test_single_tourist(self) -> None:
        table = parse_checkins(csv_stream(["u1,TR,1", "u1,TR,2", "u1,DE,3"]))
        g = build_mobility_graph(table, infer_homes(table), {"TR", "DE"})
        assert g.edges == {("TR", "DE"): 1}

    def test_distinct_user_counting(self) -> None:
        rows = ["u1,US,1", "u1,US,2", "u1,US,3", "u1,MX,4",
                "u2,US,5", "u2,US,6", "u2,MX,7", "u2,CA,8"]
        table = parse_checkins(csv_stream(rows))
        g = build_mobility_graph(table, infer_homes(table), {"US", "MX", "CA"})
        assert g.edges == {("US", "MX"): 2, ("US", "CA"): 1}

    def test_nodes_are_exactly_allowed_set(self) -> None:
        table = parse_checkins(csv_stream(["u1,US,1", "u1,MX,2"]))
        g = build_mobility_graph(table, infer_homes(table), {"US", "MX", "BR"})
        assert g.nodes == ("BR", "MX", "US")

    def test_sub_threshold_home_dropped_entirely(self) -> None:
        rows = ["u1,GL,1", "u1,GL,2", "u1,US,3", "u2,US,4", "u2,US,5", "u2,MX,6"]
        table = parse_checkins(csv_stream(rows))
        g = build_mobility_graph(table, infer_homes(table), {"US", "MX"})
        assert g.edges == {("US", "MX"): 1}

    def test_missing_home_rejected(self) -> None:
        table = parse_checkins(csv_stream(["u1,US,1"]))
        with pytest.raises(ValueError, match="no home assignment"):
            build_mobility_graph(table, {}, {"US"})

    def test_record_order_irrelevant(self) -> None:
        rng = np.random.default_rng(3)
        text, events = synthetic_checkin_text(rng, 200, codes_for(6))
        table = parse_checkins(io.StringIO(text))
        homes = infer_homes(table)
        allowed = filter_countries(table, 0)
        g1 = build_mobility_graph(table, homes, allowed)
        header, *rows = text.splitlines()
        rng.shuffle(rows)
        table2 = parse_checkins(io.StringIO("\n".join([header, *rows]) + "\n"))
        assert table2 == table
        g2 = build_mobility_graph(table2, infer_homes(table2), allowed)
        assert g1 == g2

    def test_matches_visitor_set_oracle(self) -> None:
        rng = np.random.default_rng(21)
        text, events = synthetic_checkin_text(rng, 1000, codes_for(9))
        table = parse_checkins(io.StringIO(text))
        homes = infer_homes(table)
        allowed = filter_countries(table, 100)
        g = build_mobility_graph(table, homes, allowed)
        visitors: dict[tuple[str, str], set[str]] = {}
        for user, country in events:
            home = homes[user]
            if home in allowed and country in allowed and country != home:
                visitors.setdefault((home, country), set()).add(user)
        assert g.edges == {pair: len(users) for pair, users in visitors.items()}
        for (origin, _), weight in g.edges.items():
            residents = sum(1 for u, h in homes.items() if h == origin)
            assert weight <= residents

    @given(table=_TABLES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_tally_oracle(self, table: CheckinTable, data) -> None:
        # Inferred homes visit their home country; drawn ones may not, and
        # some homes lie outside the kept set.
        codes = codes_for(5)
        users = table.user_country_counts
        homes = infer_homes(table) if data.draw(st.booleans()) else {
            user: data.draw(st.sampled_from(codes)) for user in users}
        kept = data.draw(st.frozensets(st.sampled_from(codes)))
        graph = build_mobility_graph(table, homes, kept, "x")
        expected = MobilityGraph.build(pair_tally_edges(users, homes, kept), kept, "x")
        assert graph == expected
        assert graph.nodes == tuple(sorted(kept))


class TestParseFlowMatrix:
    def test_two_directed_edges(self) -> None:
        g = parse_flow_matrix(io.StringIO("origin,destination,count\nFR,ES,100\nES,FR,80\n"))
        assert g.nodes == ("ES", "FR")
        assert g.edges == {("FR", "ES"): 100, ("ES", "FR"): 80}

    def test_self_loop_rejected(self) -> None:
        with pytest.raises(ParseError, match="self-loop"):
            parse_flow_matrix(io.StringIO("origin,destination,count\nFR,FR,5\n"))

    def test_duplicate_pair_rejected(self) -> None:
        with pytest.raises(ParseError, match="duplicate"):
            parse_flow_matrix(io.StringIO("origin,destination,count\nFR,ES,1\nFR,ES,2\n"))

    def test_non_positive_count_rejected(self) -> None:
        with pytest.raises(ParseError, match="positive integer"):
            parse_flow_matrix(io.StringIO("origin,destination,count\nFR,ES,0\n"))

    def test_bad_header_rejected(self) -> None:
        with pytest.raises(ParseError, match="header"):
            parse_flow_matrix(io.StringIO("from,to,n\nFR,ES,1\n"))

    def test_counts_total_at_most_2_53(self) -> None:
        text = f"origin,destination,count\n# flows\nAA,AB,{2**52}\nAB,AA,{2**52}\n"
        assert parse_flow_matrix(io.StringIO(text)).total_weight == 2**53
        with pytest.raises(ParseError, match=r"more than 2\*\*53 at flow matrix line 5$"):
            parse_flow_matrix(io.StringIO(text + "AB,AC,1\nAC,AB,1\n"))
        with pytest.raises(ParseError, match="line 2$"):
            parse_flow_matrix(io.StringIO(f"origin,destination,count\nAA,AB,{10**20}\n"))

    def test_nodes_comment_adds_isolated_nodes(self) -> None:
        text = "# nodes: AA BB CC\norigin,destination,count\nAA,BB,2\n"
        g = parse_flow_matrix(io.StringIO(text))
        assert g.nodes == ("AA", "BB", "CC")

    def test_reparse_oracle(self) -> None:
        rng = np.random.default_rng(55)
        codes = codes_for(30)
        rows = []
        seen = set()
        while len(rows) < 200:
            i, j = rng.integers(0, 30, size=2)
            if i == j or (i, j) in seen:
                continue
            seen.add((int(i), int(j)))
            rows.append(f"{codes[i]},{codes[j]},{int(rng.integers(1, 500))}")
        text = "origin,destination,count\n" + "\n".join(rows) + "\n"
        g = parse_flow_matrix(io.StringIO(text))
        expected: dict[tuple[str, str], int] = {}
        for line in rows:
            o, d, c = line.split(",")
            expected[(o, d)] = int(c)
        assert g.edges == expected


# Raw bytes rarely get past the header checks; lines made of the
# characters the parsers give meaning to do.
_FUZZ_LINES = st.lists(
    st.text(alphabet='AUSZa019,.-:+T "#{}[]\r\n\x00\xa0\u0660', max_size=40), max_size=8)


def _fuzz_payload(header: str):
    structured = _FUZZ_LINES.map(lambda lines: "\n".join([header, *lines]).encode("utf-8"))
    return st.one_of(st.binary(max_size=300), structured)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestFuzz:
    """Arbitrary bytes give a parsed result or ParseError, never another exception."""

    @given(payload=_fuzz_payload("origin,destination,count"))
    @settings(max_examples=300, deadline=None)
    def test_parse_flow_matrix(self, fuzz_file, payload: bytes) -> None:
        fuzz_file.write_bytes(payload)
        try:
            parse_flow_matrix(fuzz_file)
        except ParseError:
            pass

    @given(payload=_fuzz_payload("country,region"))
    @settings(max_examples=300, deadline=None)
    def test_region_map_from_csv(self, fuzz_file, payload: bytes) -> None:
        fuzz_file.write_bytes(payload)
        try:
            RegionMap.from_csv(fuzz_file)
        except ParseError:
            pass

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @given(payload=st.one_of(_fuzz_payload("user_id,country,timestamp"),
                             _fuzz_payload('{"user_id": "u", "country": "US", "timestamp": 1}')))
    @settings(max_examples=200, deadline=None)
    def test_parse_checkins(self, fuzz_file, fmt: str, strict: bool, payload: bytes) -> None:
        fuzz_file.write_bytes(payload)
        try:
            parse_checkins(fuzz_file, fmt=fmt, strict=strict)
        except ParseError:
            pass

    def test_bare_carriage_return_line_ends(self, tmp_path: Path) -> None:
        path = tmp_path / "flows.csv"
        path.write_bytes(b"origin,destination,count\rAA,AB,3\rAB,AA,1\r")
        assert parse_flow_matrix(path).edges == {("AA", "AB"): 3, ("AB", "AA"): 1}

    def test_line_end_inside_a_stream_field_is_parse_error(self) -> None:
        # A text stream splits lines at \n only, so csv sees the \r inside a field.
        with pytest.raises(ParseError, match="line 2 is malformed"):
            parse_flow_matrix(io.StringIO("origin,destination,count\nAA,AB,1\r0\n"))

    @pytest.mark.parametrize("row", [
        b"AA,AB,1\r0",  # a bare \r ends the row, so "0" is a row of one field
        b"AA,AB," + b"9" * 5000,  # more digits than int() converts
    ])
    def test_unreadable_flow_rows_are_parse_errors(self, tmp_path: Path, row: bytes) -> None:
        path = tmp_path / "flows.csv"
        path.write_bytes(b"origin,destination,count\n" + row + b"\n")
        with pytest.raises(ParseError):
            parse_flow_matrix(path)

    @pytest.mark.parametrize("what", ["flow matrix", "region map", "report"])
    def test_oversized_field_exits_2(self, tmp_path: Path, what: str, capsys) -> None:
        flows = tmp_path / "flows.csv"
        flows.write_text("origin,destination,count\nAA,AB,2\nAB,AC,1\nAC,AA,3\n")
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows}", "--set", f"output_dir={out}"]
        assert main(["build", *base]) == EXIT_OK
        built = {path.name: path.read_bytes() for path in out.iterdir()}
        field = "1" * ((1 << 17) + 1)  # over csv's field size limit
        bad = tmp_path / "bad.csv"
        svg = tmp_path / "plot.svg"
        if what == "flow matrix":
            bad.write_text(f"origin,destination,count\nAA,AB,{field}\n")
            args = ["build", *base, "--set", f"dataset_b_flows={bad}"]
        elif what == "region map":
            bad.write_text(f"country,region\nAA,{field}\n")
            args = ["analyze", *base, "--set", f"region_map={bad}"]
        else:
            bad.write_text(f"country,rho,flag\nAA,{field},\n")
            args = ["plot", "--report", str(bad), "--kind", "strip", "--out", str(svg)]
        capsys.readouterr()
        assert main(args) == EXIT_PARSE
        assert f"input error: {what} line 2 is malformed" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == built
        assert not svg.exists()

    @pytest.mark.parametrize("fmt, row", [
        # over csv's field size limit, so csv raises and the reader resumes
        pytest.param("csv", "u1," + "U" * ((1 << 17) + 1) + ",1", id="csv-oversized-field"),
        # over json's recursion limit
        pytest.param("ndjson", "[" * 100_000, id="ndjson-deep-nesting"),
    ])
    def test_unreadable_checkin_rows_are_malformed(self, fmt: str, row: str) -> None:
        header = "user_id,country,timestamp" if fmt == "csv" else (
            '{"user_id": "u0", "country": "US", "timestamp": 1}')
        text = "\n".join([header, row, header if fmt == "ndjson" else "u2,US,2"]) + "\n"
        table = parse_checkins(io.StringIO(text), fmt=fmt, strict=False)
        assert (table.record_count, table.skipped) == ((1, 1) if fmt == "csv" else (2, 1))
        with pytest.raises(ParseError, match="line 2"):
            parse_checkins(io.StringIO(text), fmt=fmt, strict=True)

"""Properties of the CSV schemas and of unify: any record a writer accepts
is read back as an equal record; mutated file bytes only ever raise
PromoGymError; unify's promo flag matches a scan of the promo intervals."""

import io
import string
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promo_gym.errors import PromoGymError
from promo_gym.ingest import (
    DailySalesRecord,
    OnlineTxnRecord,
    PromoPlanRecord,
    RxTxnRecord,
    parse_holidays,
    parse_promo_plan,
    parse_transactions,
    parse_zip_store_map,
    read_daily_series,
    unify,
    write_daily_series,
    write_promo_plan,
    write_transactions,
)

# Cells are stripped on read, so generated text is stripped too. Commas,
# quotes, line feeds and carriage returns are drawn often on purpose. NUL is
# left out: before Python 3.11 csv.reader rejects any line that contains it.
_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(string.ascii_letters + string.digits + ",\"' \n\r;-"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=12,
).map(str.strip)
_count = st.integers(min_value=0, max_value=10**12)
_amount = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_dates = st.dates()


@st.composite
def promo_records(draw):
    start, end = sorted([draw(_dates), draw(_dates)])
    return PromoPlanRecord(
        draw(_text), draw(_text), draw(_text), start, end, draw(_amount),
        draw(_text), draw(_text), draw(_text), draw(_count), draw(_amount),
        draw(st.booleans()), draw(st.booleans()), draw(st.booleans()),
        draw(st.booleans()),
    )


online_records = st.builds(OnlineTxnRecord, _text, _dates, _count, _count, _text,
                           _text, _text, _text)
rx_records = st.builds(RxTxnRecord, _text, _text, _dates, _count,
                       _text.filter(bool))


@st.composite
def series_records(draw):
    day = draw(_dates)
    return DailySalesRecord(draw(_text), draw(_text), day, day.weekday(),
                            draw(_count), draw(st.booleans()), draw(st.booleans()),
                            draw(st.booleans()))


def _written(write, records, *args) -> io.StringIO:
    buf = io.StringIO()
    write(buf, records, *args)
    return io.StringIO(buf.getvalue())


@settings(deadline=None)
@given(st.lists(promo_records(), max_size=5))
def test_promo_plan_round_trip(records):
    assert parse_promo_plan(_written(write_promo_plan, records)) == records


@settings(deadline=None)
@given(st.lists(online_records, max_size=5))
def test_online_transactions_round_trip(records):
    buf = _written(write_transactions, records, "online")
    assert parse_transactions(buf, "online") == records


@settings(deadline=None)
@given(st.lists(rx_records, max_size=5))
def test_rx_transactions_round_trip(records):
    buf = _written(write_transactions, records, "rx")
    assert parse_transactions(buf, "rx") == records


@settings(deadline=None)
@given(st.lists(series_records(), max_size=5))
def test_daily_series_round_trip(records):
    assert read_daily_series(_written(write_daily_series, records)) == records


# --- mutated CSV bytes -------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# reader name -> (a valid file, reader)
READERS = {
    "promo": ((FIXTURES / "promo_plan.csv").read_bytes(), parse_promo_plan),
    "online": ((FIXTURES / "online_transactions.csv").read_bytes(),
               lambda source: parse_transactions(source, "online")),
    "rx": ((FIXTURES / "rx_transactions.csv").read_bytes(),
           lambda source: parse_transactions(source, "rx")),
    "holidays": ((FIXTURES / "holidays.csv").read_bytes(), parse_holidays),
    "zip": (b"zip,store_id\n02139,S01\n10001,S02\n", parse_zip_store_map),
    "series": (b"store_id,product_id,date,day_of_week,units_sold,promo_active,"
               b"state_holiday,school_holiday\n"
               b"S01,P100,2015-06-01,0,5,true,false,false\n"
               b"S01,P100,2015-06-02,1,0,false,true,false\r\n",
               read_daily_series),
}

# Rows whose every cell is blank after str.strip: spaces, tabs, no-break and
# ideographic spaces, form feeds, empty cells and an empty quoted cell.
_blank_rows = st.one_of(
    st.text(alphabet=" \t\xa0\u3000\x0c,", max_size=6),
    st.just('""'),
    st.just('\xa0,"",\t'),
)
_junk = st.one_of(
    st.sampled_from([b",", b'"', b"\n", b"\r", b" ", b"\t", b"\x00", b"\xa0",
                     b"\xc2\xa0", b"\xff", b"-", b"0", b"9", b"x", b"Y", b"\xe2\x80"]),
    st.binary(min_size=1, max_size=3),
)


def _line_starts(data: bytes) -> list[int]:
    """Offsets just past each line feed: where a row may be inserted after
    the header."""
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


@st.composite
def _with_blank_rows(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(_line_starts(data)))
        data = data[:at] + draw(_blank_rows).encode("utf-8") + b"\n" + data[at:]
    return data


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["replace", "insert", "delete", "blank-row"]))
        if edit == "blank-row":
            data = draw(_with_blank_rows(data))
            continue
        at = draw(st.integers(0, len(data) - 1))
        if edit == "replace":
            data = data[:at] + draw(_junk) + data[at + 1:]
        elif edit == "insert":
            data = data[:at] + draw(_junk) + data[at:]
        else:
            data = data[:at] + data[at + 1:]
        if not data:
            break
    return data


def _stream(data: bytes) -> io.TextIOWrapper:
    """What the readers get from open(path, newline="", encoding="utf-8")."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


@pytest.mark.parametrize("name", READERS)
@settings(deadline=None)
@given(data=st.data())
def test_blank_rows_are_skipped(name, data):
    valid, read = READERS[name]
    assert read(_stream(data.draw(_with_blank_rows(valid)))) == read(_stream(valid))


@pytest.mark.parametrize("name", READERS)
@settings(deadline=None)
@given(data=st.data())
def test_mutated_bytes_only_raise_promo_gym_error(name, data):
    valid, read = READERS[name]
    try:
        read(_stream(data.draw(_mutated(valid))))
    except PromoGymError:
        pass


# --- unify's promo flag -----------------------------------------------------

_BASE = date(2015, 6, 1)
_pairs = st.sampled_from([("S01", "P1"), ("S01", "P2"), ("S02", "P1")])


@st.composite
def _promo(draw):
    store, product = draw(_pairs)
    start = _BASE + timedelta(days=draw(st.integers(-10, 40)))
    end = start + timedelta(days=draw(st.sampled_from([0, 0, 1, 3, 7, 20])))
    if draw(st.integers(0, 9)) == 0:  # as long as dates reach
        start, end = date.min, date.max
    return PromoPlanRecord("PR", "TPR", "E", start, end, 1.0, store, "AD", product,
                           1, 1.0, False, False, False, False)


@st.composite
def _rx_row(draw):
    store, product = draw(_pairs)
    day = _BASE + timedelta(days=draw(st.integers(0, 30)))
    return RxTxnRecord(store, product, day, draw(st.integers(0, 9)), "EA")


@settings(deadline=None)
@given(st.lists(_rx_row(), min_size=1, max_size=8), st.lists(_promo(), max_size=12))
def test_unify_promo_flag_matches_interval_scan(rx, promos):
    holidays = {_BASE - timedelta(days=1): (False, False),
                _BASE + timedelta(days=31): (False, False)}
    series = unify([], rx, promos, holidays)
    for rec in series:
        pair_promos = [(p.promo_start_date, p.promo_end_date) for p in promos
                       if (p.store_id, p.product_id) == (rec.store_id, rec.product_id)]
        day = rec.date
        assert rec.promo_active is any(start <= day <= end
                                       for start, end in pair_promos)

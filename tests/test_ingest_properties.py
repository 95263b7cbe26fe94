"""Round-trip properties of the CSV schemas: any record a writer accepts is
read back as an equal record."""

import io
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from promo_gym.ingest import (
    DailySalesRecord,
    OnlineTxnRecord,
    PromoPlanRecord,
    RxTxnRecord,
    parse_promo_plan,
    parse_transactions,
    read_daily_series,
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

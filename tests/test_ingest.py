import io
from datetime import date

import pytest

from promo_gym.errors import CalendarGap, HeaderMismatch, RowError
from promo_gym.ingest import (
    DailySalesRecord,
    HolidayRecord,
    OnlineTxnRecord,
    PromoPlanRecord,
    RxTxnRecord,
    ZipStoreRecord,
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

PROMO_HEADER = (
    "promo_code,promo_type,event_id,promo_start_date,promo_end_date,"
    "promo_target_amount,store_id,ad_id,product_id,offer_qty,offer_price,"
    "planogram_change,special_package,ad_location,coupon"
)
PROMO_ROW = "PR-1,TPR,E-1,2015-06-01,2015-06-07,250.0,S01,AD-1,P100,2,4.99,N,N,Y,N"


def weekday_oracle(d: date) -> int:
    """Independent day-of-week: days elapsed since a known Monday, mod 7."""
    known_monday = date(2001, 1, 1)
    return (d - known_monday).days % 7


def holidays_for(lo: date, hi: date) -> dict[date, tuple[bool, bool]]:
    return {lo: (False, False), hi: (False, False)}


@pytest.mark.parametrize("cls", [PromoPlanRecord, OnlineTxnRecord, RxTxnRecord,
                                 HolidayRecord, ZipStoreRecord, DailySalesRecord])
def test_records_are_immutable(cls):
    names = list(cls.__annotations__)
    record = cls(*[None] * len(names))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


class TestPromoPlanParsing:
    def test_single_valid_row(self):
        records = parse_promo_plan(io.StringIO(f"{PROMO_HEADER}\n{PROMO_ROW}\n"))
        assert len(records) == 1
        rec = records[0]
        assert rec.promo_start_date == date(2015, 6, 1)
        assert rec.promo_end_date == date(2015, 6, 7)
        assert rec.ad_location is True and rec.coupon is False

    def test_start_after_end_rejected(self):
        bad = PROMO_ROW.replace("2015-06-07", "2015-05-07")
        with pytest.raises(RowError) as err:
            parse_promo_plan(io.StringIO(f"{PROMO_HEADER}\n{bad}\n"))
        assert err.value.row == 2

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            parse_promo_plan(io.StringIO("promo_code,oops\nx,y\n"))

    def test_first_bad_row_raises_with_its_number(self):
        bad = PROMO_ROW.replace("2015-06-01", "junk")
        text = f"{PROMO_HEADER}\n{PROMO_ROW}\n{bad}\n{PROMO_ROW}\n"
        with pytest.raises(RowError) as err:
            parse_promo_plan(io.StringIO(text))
        assert err.value.row == 3
        assert str(err.value).startswith("row 3: ")

    def test_boolean_spellings(self):
        for raw, expected in (("Y", True), ("n", False), ("1", True),
                              ("0", False), ("TRUE", True), ("false", False)):
            row = PROMO_ROW.rsplit(",", 1)[0] + f",{raw}"
            [rec] = parse_promo_plan(io.StringIO(f"{PROMO_HEADER}\n{row}\n"))
            assert rec.coupon is expected

    def test_crlf_accepted(self):
        text = f"{PROMO_HEADER}\r\n{PROMO_ROW}\r\n"
        assert len(parse_promo_plan(io.StringIO(text))) == 1


class TestTransactionParsing:
    def test_online_units_parsed(self):
        text = (
            "product_id,date,eod_sales_qty,eod_return_qty,zip,city,state,geo_area_code\n"
            "P100,2015-06-01,42,3,02139,Cambridge,MA,NE-01\n"
        )
        [rec] = parse_transactions(io.StringIO(text), "online")
        assert rec.eod_sales_qty == 42
        assert rec.eod_return_qty == 3

    def test_returns_may_exceed_sales(self):
        text = (
            "product_id,date,eod_sales_qty,eod_return_qty,zip,city,state,geo_area_code\n"
            "P100,2015-06-01,1,5,02139,Cambridge,MA,NE-01\n"
        )
        [rec] = parse_transactions(io.StringIO(text), "online")
        assert rec.eod_return_qty == 5

    def test_negative_quantity_rejected(self):
        text = (
            "store_id,product_id,date,eod_sales_qty,qty_uom\n"
            "S01,P100,2015-06-01,-3,EA\n"
        )
        with pytest.raises(RowError):
            parse_transactions(io.StringIO(text), "rx")

    def test_rx_missing_uom_rejected(self):
        text = (
            "store_id,product_id,date,eod_sales_qty,qty_uom\n"
            "S01,P100,2015-06-01,3,\n"
        )
        with pytest.raises(RowError):
            parse_transactions(io.StringIO(text), "rx")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_transactions(io.StringIO("x\n"), "mail")

    def test_large_file_count_and_order(self):
        rows = ["store_id,product_id,date,eod_sales_qty,qty_uom"]
        rows += [f"S01,P{i:05d},2015-06-01,{i % 50},EA" for i in range(10_000)]
        records = parse_transactions(io.StringIO("\n".join(rows) + "\n"), "rx")
        assert len(records) == 10_000
        assert [r.product_id for r in records] == [f"P{i:05d}" for i in range(10_000)]


class TestUnify:
    def test_single_rx_row_monday(self):
        rx = [RxTxnRecord("A", "P", date(2015, 6, 1), 10, "EA")]
        series = unify([], rx, [], holidays_for(date(2015, 6, 1), date(2015, 6, 1)))
        assert len(series) == 1
        rec = series[0]
        assert rec.units_sold == 10
        assert rec.promo_active is False
        assert rec.day_of_week == 0
        assert rec.day_of_week == weekday_oracle(rec.date)

    def test_promo_interval_membership(self):
        rx = [RxTxnRecord("A", "P", date(2015, 6, 1), 10, "EA")]
        promo = PromoPlanRecord(
            "PR", "TPR", "E", date(2015, 5, 30), date(2015, 6, 2), 100.0, "A",
            "AD", "P", 1, 1.0, False, False, False, False,
        )
        [rec] = unify([], rx, [promo],
                      holidays_for(date(2015, 6, 1), date(2015, 6, 1)))
        assert rec.promo_active is True

    def test_same_key_rows_add(self):
        rx = [
            RxTxnRecord("A", "P", date(2015, 6, 1), 3, "EA"),
            RxTxnRecord("A", "P", date(2015, 6, 1), 4, "EA"),
        ]
        [rec] = unify([], rx, [], holidays_for(date(2015, 6, 1), date(2015, 6, 1)))
        assert rec.units_sold == 7

    def test_zero_fill_inside_span(self):
        rx = [
            RxTxnRecord("A", "P", date(2015, 6, 1), 3, "EA"),
            RxTxnRecord("A", "P", date(2015, 6, 4), 4, "EA"),
        ]
        series = unify([], rx, [], holidays_for(date(2015, 6, 1), date(2015, 6, 4)))
        assert [r.units_sold for r in series] == [3, 0, 0, 4]
        assert [r.date.day for r in series] == [1, 2, 3, 4]

    def test_online_rows_fall_back_to_virtual_store(self):
        online = [OnlineTxnRecord("P", date(2015, 6, 1), 5, 0, "02139",
                                  "Cambridge", "MA", "NE")]
        [rec] = unify(online, [], [],
                      holidays_for(date(2015, 6, 1), date(2015, 6, 1)))
        assert rec.store_id == "ONLINE"
        assert rec.units_sold == 5

    def test_zip_store_map_joins_online_to_store(self):
        online = [OnlineTxnRecord("P", date(2015, 6, 1), 5, 0, "02139",
                                  "Cambridge", "MA", "NE")]
        rx = [RxTxnRecord("S01", "P", date(2015, 6, 1), 2, "EA")]
        series = unify(online, rx, [],
                       holidays_for(date(2015, 6, 1), date(2015, 6, 1)),
                       zip_store_map={"02139": "S01"})
        assert len(series) == 1
        assert series[0].units_sold == 7

    def test_holiday_flags_applied(self):
        rx = [RxTxnRecord("A", "P", date(2015, 6, 1), 3, "EA")]
        holidays = {date(2015, 6, 1): (True, False)}
        [rec] = unify([], rx, [], holidays)
        assert rec.state_holiday is True and rec.school_holiday is False

    def test_calendar_gap(self):
        rx = [RxTxnRecord("A", "P", date(2015, 6, 9), 3, "EA")]
        with pytest.raises(CalendarGap):
            unify([], rx, [], holidays_for(date(2015, 6, 1), date(2015, 6, 7)))

    def test_additivity_over_disjoint_store_products(self):
        holidays = holidays_for(date(2015, 6, 1), date(2015, 6, 10))
        a = [RxTxnRecord("A", "P", date(2015, 6, 1), 3, "EA"),
             RxTxnRecord("A", "P", date(2015, 6, 3), 1, "EA")]
        b = [RxTxnRecord("B", "Q", date(2015, 6, 2), 9, "EA")]
        merged = unify([], a + b, [], holidays)
        separate = sorted(
            unify([], a, [], holidays) + unify([], b, [], holidays),
            key=lambda r: (r.store_id, r.product_id, r.date),
        )
        assert merged == separate


class TestRoundTrips:
    def test_promo_plan_round_trip(self):
        [rec] = parse_promo_plan(io.StringIO(f"{PROMO_HEADER}\n{PROMO_ROW}\n"))
        buf = io.StringIO()
        write_promo_plan(buf, [rec])
        assert parse_promo_plan(io.StringIO(buf.getvalue())) == [rec]

    def test_transactions_round_trip(self):
        online = [OnlineTxnRecord("P100", date(2015, 6, 1), 42, 3, "02139",
                                  "Cambridge", "MA", "NE-01")]
        rx = [RxTxnRecord("S01", "P100", date(2015, 6, 1), 7, "EA")]
        for records, kind in ((online, "online"), (rx, "rx")):
            buf = io.StringIO()
            write_transactions(buf, records, kind)
            assert parse_transactions(io.StringIO(buf.getvalue()), kind) == records

    def test_daily_series_round_trip(self):
        rx = [RxTxnRecord("A", "P", date(2015, 6, 1), 3, "EA"),
              RxTxnRecord("A", "P", date(2015, 6, 3), 4, "EA")]
        series = unify([], rx, [], holidays_for(date(2015, 6, 1), date(2015, 6, 3)))
        buf = io.StringIO()
        write_daily_series(buf, series)
        assert read_daily_series(io.StringIO(buf.getvalue())) == series

    def test_series_day_of_week_consistency_enforced(self):
        text = (
            "store_id,product_id,date,day_of_week,units_sold,promo_active,"
            "state_holiday,school_holiday\n"
            "A,P,2015-06-01,3,10,false,false,false\n"  # 2015-06-01 is a Monday
        )
        with pytest.raises(RowError):
            read_daily_series(io.StringIO(text))


class TestAuxiliaryParsers:
    def test_holidays(self):
        text = "date,state_holiday,school_holiday\n2015-05-25,1,0\n2015-06-08,0,1\n"
        cal = parse_holidays(io.StringIO(text))
        assert cal[date(2015, 5, 25)] == (True, False)
        assert cal[date(2015, 6, 8)] == (False, True)

    def test_zip_store_map(self):
        text = "zip,store_id\n02139,S01\n10001,S02\n"
        assert parse_zip_store_map(io.StringIO(text)) == {
            "02139": "S01", "10001": "S02",
        }

    def test_fixture_files_parse(self, fixtures_dir):
        promos = parse_promo_plan(fixtures_dir / "promo_plan.csv")
        online = parse_transactions(fixtures_dir / "online_transactions.csv", "online")
        rx = parse_transactions(fixtures_dir / "rx_transactions.csv", "rx")
        holidays = parse_holidays(fixtures_dir / "holidays.csv")
        assert (len(promos), len(online), len(rx), len(holidays)) == (3, 4, 42, 6)
        series = unify(online, rx, promos, holidays)
        assert len(series) == 49
        keys = {(r.store_id, r.product_id) for r in series}
        assert keys == {("S01", "P100"), ("ONLINE", "P100")}

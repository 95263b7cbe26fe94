"""Retail CSV ingestion: promotion plans, transactions, holiday calendars.

Each CSV schema is stated once, as a record NamedTuple below: its field
names in order are the exact header, and each field's type picks how a
cell is parsed and written (UTF-8, YYYY-MM-DD dates, LF or CRLF on read).

Parsing is strict: the first bad row raises RowError with its row
number. unify() folds everything into one dense daily series per
store-product, zero-filling gaps inside each pair's observed span.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, NamedTuple, TextIO, get_type_hints

from .errors import CalendarGap, ConfigError, HeaderMismatch, ParseError, RowError

ONLINE_STORE_ID = "ONLINE"  # fallback store for online rows without a zip mapping

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_TRUE = {"y", "1", "true"}
_FALSE = {"n", "0", "false"}


class PromoPlanRecord(NamedTuple):
    promo_code: str
    promo_type: str
    event_id: str
    promo_start_date: date
    promo_end_date: date
    promo_target_amount: float
    store_id: str
    ad_id: str
    product_id: str
    offer_qty: int
    offer_price: float
    planogram_change: bool
    special_package: bool
    ad_location: bool
    coupon: bool


class OnlineTxnRecord(NamedTuple):
    product_id: str
    date: date
    eod_sales_qty: int
    eod_return_qty: int
    zip: str
    city: str
    state: str
    geo_area_code: str


class RxTxnRecord(NamedTuple):
    store_id: str
    product_id: str
    date: date
    eod_sales_qty: int
    qty_uom: str


class HolidayRecord(NamedTuple):
    date: date
    state_holiday: bool
    school_holiday: bool


class ZipStoreRecord(NamedTuple):
    zip: str
    store_id: str


class DailySalesRecord(NamedTuple):
    """One store-product-day of the unified series. day_of_week: 0 = Monday."""

    store_id: str
    product_id: str
    date: date
    day_of_week: int
    units_sold: int
    promo_active: bool
    state_holiday: bool
    school_holiday: bool


# --- field parsers -----------------------------------------------------------


def iso_date(text: str) -> date:
    """The date written YYYY-MM-DD, the one form the writers write. Any
    other form raises ValueError: date.fromisoformat reads 20150608 and
    2015-W24-1 too from Python 3.11 on, but not on 3.10."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return date.fromisoformat(text)


def _parse_date(text: str, row: int, name: str) -> date:
    try:
        return iso_date(text.strip())
    except ValueError:
        raise RowError(f"{name}: {text!r} is not a YYYY-MM-DD date", row) from None


def _parse_bool(text: str, row: int, name: str) -> bool:
    lowered = text.strip().casefold()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise RowError(f"{name}: {text!r} is not a boolean (Y/N/1/0/true/false)", row)


def _parse_nonneg_int(text: str, row: int, name: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise RowError(f"{name}: {text!r} is not an integer", row) from None
    if value < 0:
        raise RowError(f"{name}: {value} is negative", row)
    return value


def _parse_nonneg_float(text: str, row: int, name: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise RowError(f"{name}: {text!r} is not a number", row) from None
    if not math.isfinite(value):
        raise RowError(f"{name}: {text!r} is not a finite number", row)
    if value < 0:
        raise RowError(f"{name}: {value} is negative", row)
    return value


def _parse_str(text: str, row: int, name: str) -> str:
    return text.strip()


# field type -> (cell parser, cell formatter). A formatter of None leaves
# the value to csv.writer, which writes str(value): the digits of an int,
# the repr of a float, ISO-8601 for a date, a string as it is.
_CELLS = {
    str: (_parse_str, None),
    int: (_parse_nonneg_int, None),
    float: (_parse_nonneg_float, None),
    bool: (_parse_bool, {True: "true", False: "false"}.__getitem__),
    date: (_parse_date, None),
}


@functools.cache
def _schema(cls) -> tuple[list[str], list[tuple], list[tuple]]:
    """A record class's header, (name, parser) per column, and (index,
    formatter) per column that has a formatter, in field order."""
    header = list(cls._fields)
    types = get_type_hints(cls)  # the annotations are strings here
    cells = [_CELLS[types[name]] for name in header]
    parsers = [(name, parse) for name, (parse, _) in zip(header, cells)]
    formats = [(i, fmt) for i, (_, fmt) in enumerate(cells) if fmt is not None]
    return header, parsers, formats


# --- CSV plumbing ------------------------------------------------------------


def _open_rows(source: str | Path | TextIO, expected: list[str]):
    """Yield (row_number, row) pairs after checking the header row and
    skipping all-blank rows; a directory, and bytes csv cannot read,
    raise ParseError."""
    own = isinstance(source, (str, Path))
    name = _source_name(source)
    try:
        handle: TextIO = open(source, newline="", encoding="utf-8") if own else source
    except IsADirectoryError:
        raise ParseError(f"{name}: a directory, not a CSV file") from None

    def rows() -> Iterator[tuple[int, list[str]]]:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise HeaderMismatch(f"{name}: file is empty, expected header "
                                     f"{','.join(expected)}")
            if [h.strip() for h in header] != expected:
                raise HeaderMismatch(
                    f"{name}: header {','.join(header)!r} does not match "
                    f"expected {','.join(expected)!r}"
                )
            for i, row in enumerate(reader, start=2):
                if not "".join(row).strip():  # no cells, or only blank ones
                    continue
                yield i, row
        except csv.Error as exc:  # an oversized field, or NUL before Python 3.11
            raise ParseError(f"{name}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{name}: not UTF-8 text: {exc}") from None
        finally:
            if own:
                handle.close()

    return rows()


def _source_name(source: str | Path | TextIO) -> str:
    """How messages name a CSV source: its path, or its stream's name."""
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", "<stream>")


def _read(source: str | Path | TextIO, cls, check=None) -> list:
    """Parse a CSV of cls's schema into records; check(record, row_num) may
    raise RowError for a rule that spans fields."""
    header, parsers, _ = _schema(cls)
    records = []
    for row_num, row in _open_rows(source, header):
        if len(row) != len(header):
            raise RowError(f"expected {len(header)} fields, got {len(row)}", row_num)
        record = cls(*[parse(text, row_num, name)
                       for (name, parse), text in zip(parsers, row)])
        if check is not None:
            check(record, row_num)
        records.append(record)
    return records


def _open_output(path: str | Path) -> TextIO:
    """Open an output file for writing, as every writer does: UTF-8, lines
    written as they are; a directory at the path raises ConfigError."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except IsADirectoryError:
        raise ConfigError(f"output {path} is a directory, not a file") from None


def _write_csv(target: str | Path | TextIO, header: list[str], rows) -> None:
    if isinstance(target, (str, Path)):
        with _open_output(target) as handle:
            _write_csv(handle, header, rows)
        return
    # csv quotes a cell holding any character of the line terminator, so
    # each row is formatted ending in "\r\n", which quotes a cell holding
    # \r, and written ending in "\n" alone.
    write = target.write
    writer = csv.writer(SimpleNamespace(write=lambda line: write(line[:-2] + "\n")),
                        lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write(target: str | Path | TextIO, cls, records) -> None:
    """Write records as a CSV of cls's schema."""
    header, _, formats = _schema(cls)

    def row(record) -> list:
        values = list(record)
        for i, fmt in formats:
            values[i] = fmt(values[i])
        return values

    _write_csv(target, header, map(row, records))


# --- row rules that span fields ----------------------------------------------


def _check_promo_dates(rec: PromoPlanRecord, row_num: int) -> None:
    if rec.promo_start_date > rec.promo_end_date:
        raise RowError(
            f"promo_start_date {rec.promo_start_date} after promo_end_date "
            f"{rec.promo_end_date}", row_num,
        )


def _check_uom(rec: RxTxnRecord, row_num: int) -> None:
    if not rec.qty_uom:
        raise RowError("qty_uom: missing unit of measure", row_num)


def _check_day_of_week(rec: DailySalesRecord, row_num: int) -> None:
    if rec.day_of_week != rec.date.weekday():
        raise RowError(
            f"day_of_week {rec.day_of_week} does not match {rec.date.isoformat()}",
            row_num,
        )


# transaction kind -> (record class, row rule)
_TRANSACTIONS = {"online": (OnlineTxnRecord, None), "rx": (RxTxnRecord, _check_uom)}


def _transaction_kind(kind: str):
    try:
        return _TRANSACTIONS[kind]
    except KeyError:
        raise ValueError(f"unknown transaction kind {kind!r}, "
                         "expected 'online' or 'rx'") from None


# --- public parsers ----------------------------------------------------------


def parse_promo_plan(source: str | Path | TextIO) -> list[PromoPlanRecord]:
    """Parse the promotion-plan schema; validates start <= end per row."""
    return _read(source, PromoPlanRecord, _check_promo_dates)


def parse_transactions(source: str | Path | TextIO, kind: str):
    """Parse transactions of the given kind: 'online' or 'rx'."""
    cls, check = _transaction_kind(kind)
    return _read(source, cls, check)


def parse_zip_store_map(source: str | Path | TextIO) -> dict[str, str]:
    """Parse the optional zip -> store mapping used to place online rows."""
    return {rec.zip: rec.store_id for rec in _read(source, ZipStoreRecord)}


def parse_holidays(source: str | Path | TextIO) -> dict[date, tuple[bool, bool]]:
    """Parse the holiday calendar into date -> (state_holiday, school_holiday)."""
    return {rec.date: (rec.state_holiday, rec.school_holiday)
            for rec in _read(source, HolidayRecord)}


# --- unification -------------------------------------------------------------


def unify(online: list[OnlineTxnRecord], rx: list[RxTxnRecord],
          promos: list[PromoPlanRecord], holidays: dict[date, tuple[bool, bool]],
          zip_store_map: dict[str, str] | None = None) -> list[DailySalesRecord]:
    """Fold transactions into one dense daily series per store-product.

    Online rows carry no store: they join through the optional
    zip -> store mapping, or aggregate under the virtual ONLINE store.
    Dates missing inside a pair's observed span are zero-filled so
    downstream binning and grids see a dense series. Holiday flags come
    from the calendar; a series date outside the calendar's span raises
    CalendarGap. Output is sorted by (store, product, date).
    """
    zip_store_map = zip_store_map or {}
    units: dict[tuple[str, str, date], int] = {}
    for txn in rx:
        key = (txn.store_id, txn.product_id, txn.date)
        units[key] = units.get(key, 0) + txn.eod_sales_qty
    for txn in online:
        store = zip_store_map.get(txn.zip, ONLINE_STORE_ID)
        key = (store, txn.product_id, txn.date)
        units[key] = units.get(key, 0) + txn.eod_sales_qty

    spans: dict[tuple[str, str], tuple[date, date]] = {}
    for store, product, day in units:
        lo, hi = spans.get((store, product), (day, day))
        spans[(store, product)] = (min(lo, day), max(hi, day))

    # each pair's promo days, clipped to the span its series covers
    promo_days: dict[tuple[str, str], set[date]] = {}
    for p in promos:
        if (pair := (p.store_id, p.product_id)) in spans:
            lo, hi = spans[pair]
            first, last = max(p.promo_start_date, lo), min(p.promo_end_date, hi)
            promo_days.setdefault(pair, set()).update(
                first + timedelta(days=i) for i in range((last - first).days + 1))

    cal_lo = min(holidays) if holidays else None
    cal_hi = max(holidays) if holidays else None

    out: list[DailySalesRecord] = []
    for (store, product) in sorted(spans):
        lo, hi = spans[(store, product)]
        pair_promo_days = promo_days.get((store, product), ())
        day = lo
        while day <= hi:
            if cal_lo is None or not (cal_lo <= day <= cal_hi):
                raise CalendarGap(
                    f"{day.isoformat()} is outside the holiday calendar span"
                    + (f" {cal_lo.isoformat()}..{cal_hi.isoformat()}" if cal_lo else "")
                )
            state_hol, school_hol = holidays.get(day, (False, False))
            out.append(DailySalesRecord(
                store, product, day, day.weekday(), units.get((store, product, day), 0),
                day in pair_promo_days, state_hol, school_hol))
            day += timedelta(days=1)
    return out


# --- CSV writers, and the reader of the unified series -----------------------


def write_promo_plan(target: str | Path | TextIO,
                     records: list[PromoPlanRecord]) -> None:
    _write(target, PromoPlanRecord, records)


def write_transactions(target: str | Path | TextIO, records, kind: str) -> None:
    _write(target, _transaction_kind(kind)[0], records)


def write_daily_series(target: str | Path | TextIO,
                       series: list[DailySalesRecord]) -> None:
    _write(target, DailySalesRecord, series)


def read_daily_series(source: str | Path | TextIO) -> list[DailySalesRecord]:
    return _read(source, DailySalesRecord, check=_check_day_of_week)

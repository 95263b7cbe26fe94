"""Five-bin categorical discretization of unit sales.

Bin boundaries sit at the 20th/40th/60th/80th nearest-rank percentiles
of the observed unit-sales multiset. Nearest rank keeps everything
integer and exactly reproducible: percentile p of n sorted values is
the value at 1-based rank ceil(p * n / 100).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import jsondoc
from .errors import EmptySeries, SchemaError

N_BINS = 5
_PERCENTILES = (20, 40, 60, 80)


@dataclass(frozen=True)
class BinningModel:
    """Fitted sales binning: 4 strictly increasing unit thresholds.

    Units at or below boundaries[b] (and above boundaries[b-1]) fall in
    bin b; units above the last boundary fall in the top bin. degenerate
    flags series with too few distinct values to support real cuts.
    """

    boundaries: tuple[int, int, int, int]
    fitted_on: int
    degenerate: bool = False


def fit_bins(units: list[int]) -> BinningModel:
    """Fit the 5-bin model to a multiset of unit-sales values.

    When the nearest-rank cut points collide (fewer than 5 distinct
    values), the distinct cuts are kept and the remainder padded upward
    by one unit each, keeping boundaries strictly increasing; the model
    is flagged degenerate.
    """
    if not units:
        raise EmptySeries("cannot fit sales bins on an empty series")
    ordered = sorted(units)
    n = len(ordered)
    cuts = [ordered[math.ceil(p * n / 100) - 1] for p in _PERCENTILES]

    degenerate = len(set(cuts)) < len(cuts)
    if degenerate:
        distinct = sorted(set(cuts))
        while len(distinct) < len(_PERCENTILES):
            distinct.append(distinct[-1] + 1)
        cuts = distinct

    return BinningModel(
        boundaries=tuple(cuts),
        fitted_on=n,
        degenerate=degenerate,
    )


def assign_bin(model: BinningModel, units: int) -> int:
    """Map a non-negative unit count to its bin 0..4.

    The bin is the smallest index whose boundary is >= units; ties at a
    boundary fall in the lower bin, anything above the last boundary in
    the top bin.
    """
    for b, cut in enumerate(model.boundaries):
        if units <= cut:
            return b
    return N_BINS - 1


# --- model document format ---------------------------------------------------


def model_to_json(model: BinningModel) -> str:
    return json.dumps(
        {
            "k": N_BINS,
            "boundaries": list(model.boundaries),
            "fitted_on": model.fitted_on,
            "degenerate": model.degenerate,
        },
        indent=1,
    )


def model_from_json(text: str) -> BinningModel:
    what = "binning model document"
    doc = jsondoc.record(jsondoc.loads(text), what, ("boundaries", "fitted_on"),
                         ("degenerate", "k"))
    model = BinningModel(
        boundaries=tuple(jsondoc.integer(b, f"{what}: boundary")
                         for b in jsondoc.array(doc["boundaries"], f"{what}: boundaries")),
        fitted_on=jsondoc.integer(doc["fitted_on"], f"{what}: fitted_on"),
        degenerate=jsondoc.boolean(doc.get("degenerate", False), f"{what}: degenerate"),
    )
    k = jsondoc.integer(doc.get("k", N_BINS), f"{what}: k")
    if len(model.boundaries) != N_BINS - 1 or k != N_BINS:
        raise SchemaError("binning model must carry 4 boundaries for 5 bins")
    if any(b >= c for b, c in zip(model.boundaries, model.boundaries[1:])):
        raise SchemaError("binning boundaries must be strictly increasing")
    return model

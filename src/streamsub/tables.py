"""Reference value grids for the two hard families, rendered as CSV.

Grid 2: the cardinality family at K=h=4 without the purple element --
columns of f(b, r, 0) for r = 0..3 interleaved with the red-marginal
columns, rows b = 0..10. Only the purple-absent half is emitted; the
purple-present half of the family is defined by the formulas in
``hard_cardinality`` and is covered by the unit tests instead.

Grids 3 and 4: the 3-class matroid family, one grid per state of the
last-class element. Blocks iterate the red flags of classes 1 and 2 in
the order (0,0), (1,0), (0,1), (1,1); rows are clamped blue counts of
class 1 (0..4), columns of class 2 (0..2).

The rendered CSVs are byte-compared against golden files checked into
the repository.
"""

from __future__ import annotations

from .errors import InvalidParams
from .hard_cardinality import CardHardParams, profile_value, red_marginal
from .hard_matroid import level_value

CARD_K = 4
CARD_H = 4
CARD_B_MAX = 10
MATROID_BLOCKS = ((0, 0), (1, 0), (0, 1), (1, 1))


def card_grid_rows(K: int = CARD_K, h: int = CARD_H, b_max: int = CARD_B_MAX) -> list[list[str]]:
    params = CardHardParams(n=K + b_max + K, K=K, h=h)
    header = ["b"]
    for r in range(K - 1):
        header += [f"f_r{r}", f"dr_r{r}"]
    header.append(f"f_r{K - 1}")
    rows = [header]
    for b in range(b_max + 1):
        row = [str(b)]
        for r in range(K - 1):
            row.append(str(profile_value(params, b, r, 0)))
            row.append(str(red_marginal(params, b, r)) if b < b_max else "")
        row.append(str(profile_value(params, b, K - 1, 0)))
        rows.append(row)
    return rows


def matroid_grid_rows(last_present: int) -> list[list[str]]:
    if last_present not in (0, 1):
        raise InvalidParams("last-class flag must be 0 or 1")
    header = ["b1"]
    for r1, r2 in MATROID_BLOCKS:
        for b2 in range(3):
            header.append(f"r{r1}{r2}_b2_{b2}")
    rows = [header]
    for b1 in range(5):
        row = [str(b1)]
        for r1, r2 in MATROID_BLOCKS:
            for b2 in range(3):
                row.append(str(level_value(3, (r1, r2, last_present), (b1, b2, 0))))
        rows.append(row)
    return rows


def render_csv(rows) -> str:
    """One CSV line per row, each value written with ``str``."""
    return "\n".join(",".join(map(str, row)) for row in rows) + "\n"


def emit_table(which: int) -> str:
    if which == 2:
        return render_csv(card_grid_rows())
    if which == 3:
        return render_csv(matroid_grid_rows(last_present=0))
    if which == 4:
        return render_csv(matroid_grid_rows(last_present=1))
    raise InvalidParams(f"no grid numbered {which}")

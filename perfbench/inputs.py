"""Seeded input generators for the benchmark workloads.

Everything the program receives is made here, before any timing starts, and
depends only on the benchmark seed: the same seed gives the same synthesis
specs and byte-identical result files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Split geometry of the reference archives (README and ROADMAP): the means
# add up to the 300-minute default ceiling.
MEANS = (34.0, 3.5, 167.0, 3.5, 92.0)
SPREADS = (2.0, 0.7, 4.0, 0.7, 5.0)

CSV_HEADER = "name,nation,category,place,swim,t1,bike,t2,run,overall"
AGE_GROUPS = (
    "18-24", "25-29", "30-34", "35-39", "40-44",
    "45-49", "50-54", "55-59", "60-64", "65-69",
)
NATIONS = ("AUS", "BRA", "CAN", "ESP", "FRA", "GBR", "GER", "JPN", "NZL", "USA")

# Rows of the whole-field archive, and the share of DNF rows in a result file.
FIELD_ROWS = 10_000
DNF_SHARE = 0.02

# Tags that keep the generators of different inputs on separate streams.
_FIELD_SPEC_TAG = 2
_CSV_TAG = 3


def ref_spec() -> dict:
    """The ROADMAP reference archive: 30 rows, r = (0.73, 0.0), spec seed 1."""
    return {
        "seed": 1,
        "size": 30,
        "r_swim_bike": 0.73,
        "r_bike_run": 0.0,
        "means": list(MEANS),
        "spreads": list(SPREADS),
    }


def field_spec(seed: int) -> dict:
    """A whole-field synthetic archive, r = (0.6, 0.2), spec seed from ``seed``."""
    rng = np.random.default_rng([seed, _FIELD_SPEC_TAG])
    return {
        "seed": int(rng.integers(0, 2**31 - 1)),
        "size": FIELD_ROWS,
        "r_swim_bike": 0.6,
        "r_bike_run": 0.2,
        "means": list(MEANS),
        "spreads": list(SPREADS),
        "label": "field",
        "group": "ALL",
    }


@dataclass(frozen=True)
class ResultFile:
    """A generated CSV export and the counts a correct loader must report."""

    text: str
    rows: int
    dnf: int

    @property
    def kept(self) -> int:
        return self.rows - self.dnf


def _clock(minutes: float, style: int) -> str:
    """Time string in one of three grammars; ``m:ss`` falls back to
    ``h:mm:ss`` from one hour up, where ``m:ss`` cannot represent it."""
    if style == 2:
        return f"{minutes:.2f}"
    centis = int(round(minutes * 6000.0))
    hours, rem = divmod(centis, 360_000)
    mins, rem = divmod(rem, 6000)
    if style == 1 and hours == 0:
        return f"{mins}:{rem / 100.0:05.2f}"
    return f"{hours}:{mins:02d}:{rem / 100.0:05.2f}"


def result_csv(seed: int, groups: int = 10, per_group: int = 1000) -> ResultFile:
    """A race export of ``groups`` age groups with ``per_group`` rows each.

    The time grammar rotates per row across ``h:mm:ss``, ``m:ss`` and
    decimal minutes.  Exactly ``round(DNF_SHARE * rows)`` rows, spread at
    random over the file, are DNF: their run and overall columns read
    ``DNF``, so the loader must skip them and keep every other row.
    """
    rng = np.random.default_rng([seed, _CSV_TAG])
    rows = groups * per_group
    dnf = int(round(DNF_SHARE * rows))
    dnf_rows = set(rng.choice(rows, size=dnf, replace=False).tolist())
    means = np.asarray(MEANS)
    spreads = np.asarray(SPREADS)

    lines = [CSV_HEADER]
    row = 0
    for g, group in enumerate(AGE_GROUPS[:groups]):
        latent = rng.standard_normal(per_group)
        noise = rng.standard_normal((5, per_group))
        z = np.vstack([
            0.6 * latent + 0.8 * noise[0],
            noise[1],
            latent,
            noise[3],
            0.2 * latent + np.sqrt(1.0 - 0.04) * noise[4],
        ])
        # older groups are a little slower; transitions never drop below 1 min
        splits = (means[:, None] + spreads[:, None] * z) * (1.0 + 0.015 * g)
        splits[[1, 3]] = np.maximum(splits[[1, 3]], 1.0)
        order = np.argsort(splits.sum(axis=0), kind="stable")
        finishers = [j for j in order if row + j not in dnf_rows]
        non_finishers = [j for j in order if row + j in dnf_rows]
        for place, j in enumerate(finishers + non_finishers, start=1):
            index = row + j
            style = len(lines) % 3
            values = splits[:, j].tolist()
            cells = [_clock(v, style) for v in values]
            overall = _clock(sum(values), style)
            if index in dnf_rows:
                cells[4] = overall = "DNF"
            nation = NATIONS[index % len(NATIONS)]
            lines.append(
                f"ATH-{index:05d},{nation},{group},{place},{','.join(cells)},{overall}"
            )
        row += per_group
    return ResultFile(text="\n".join(lines) + "\n", rows=rows, dnf=dnf)

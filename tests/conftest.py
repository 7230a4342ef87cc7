from __future__ import annotations

import pytest

from tables import SYNTH_MEANS, SYNTH_SPREADS, table1_csv_text
from tripace.archive import load_archive, select_group, synthesize_archive


@pytest.fixture(scope="session")
def table1_csv(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("fixtures") / "taiwan2015.csv"
    path.write_text(table1_csv_text(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def table1_rows(table1_csv):
    rows, skipped = load_archive(table1_csv)
    assert not skipped
    return rows


@pytest.fixture(scope="session")
def table1_archive(table1_rows):
    return select_group(table1_rows, "PRO-M", 5, label="taiwan2015")


@pytest.fixture(scope="session")
def high_corr_archive():
    return synthesize_archive(
        seed=1,
        size=30,
        r_swim_bike=0.73,
        r_bike_run=0.0,
        means=SYNTH_MEANS,
        spreads=SYNTH_SPREADS,
        label="high-corr",
        group="M25-29",
    )


@pytest.fixture(scope="session")
def low_corr_archive():
    return synthesize_archive(
        seed=1,
        size=30,
        r_swim_bike=0.18,
        r_bike_run=0.03,
        means=SYNTH_MEANS,
        spreads=SYNTH_SPREADS,
        label="low-corr",
        group="M25-29",
    )

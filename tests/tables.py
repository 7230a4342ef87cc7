"""The reference tables that tests and their fixtures share.

A plain module that tests import by name.  ``conftest.py`` holds only
fixtures: with ``perfbench/tests`` in the same run, the name ``conftest``
may stand for that suite's file.
"""

# Top-5 pro men from a 2015 middle-distance race; swim/bike/run as published,
# transitions filled in with plausible values so rows sum up.
TABLE1_ROWS = [
    ("Guy Crawford", "NZL", "PRO-M", 1, "24.00", "2.10", "102.63", "1.80", "81.40", "211.93"),
    ("Christian Kramer", "GER", "PRO-M", 2, "24.02", "2.20", "102.52", "1.90", "83.30", "213.94"),
    ("Fredrik Croneborg", "SWE", "PRO-M", 3, "24.95", "2.05", "107.38", "1.75", "80.83", "216.96"),
    ("Cameron Brown", "NZL", "PRO-M", 4, "25.73", "2.30", "110.47", "2.00", "82.77", "223.27"),
    ("Paul Ambrose", "AUS", "PRO-M", 5, "24.87", "2.15", "107.33", "1.85", "88.57", "224.77"),
]

TABLE1_SWIM = (24.00, 24.02, 24.95, 25.73, 24.87)
TABLE1_BIKE = (102.63, 102.52, 107.38, 110.47, 107.33)
TABLE1_RUN = (81.40, 83.30, 80.83, 82.77, 88.57)

# Shared geometry for the synthetic reference archives: split means add up to
# the 300-minute default ceiling, spreads sized like a real top-30 age group.
SYNTH_MEANS = (34.0, 3.5, 167.0, 3.5, 92.0)
SYNTH_SPREADS = (2.0, 0.7, 4.0, 0.7, 5.0)


def table1_csv_text() -> str:
    lines = ["name,nation,category,place,swim,t1,bike,t2,run,overall"]
    for row in TABLE1_ROWS:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"

"""Synthetic IoT sensors dataset and its four evaluation queries.

The paper's Sensors dataset is 122 GB of synthetic sensor output (Table 1:
5.1 KB/record, 248 scalar values each, max depth 3, doubles dominant) whose
defining property is a *high field-name-size to value-size ratio*: each
record carries an array of small ``{"value": double, "timestamp": bigint}``
reading objects plus a block of health-status gauges.  That is precisely the
shape on which the vector-based format wins most (Figure 16c: 4.3× smaller
than open, and smaller than closed thanks to the eliminated per-object
offsets), so the generator reproduces it directly at a reduced reading
count.

``SQLPP`` holds the four queries of Appendix A.3 as SQL++ text:

* Q1 — ``COUNT(*)`` over unnested readings
* Q2 — global min/max reading temperature
* Q3 — top-10 sensors by average reading (UNNEST / GROUP BY / ORDER BY)
* Q4 — same as Q3 but restricted to one day (highly selective WHERE)
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator


DEFAULT_SCALE = 1500

#: Readings per record (the paper's records carry ~120 readings; scaled down
#: but kept large enough that per-object overheads dominate record size).
READINGS_PER_RECORD = 40

#: Report-time base (milliseconds) — matches the constant used in the paper's Q4.
REPORT_TIME_BASE = 1_556_496_000_000
#: Interval between consecutive reports from the same sensor (one minute).
REPORT_INTERVAL_MS = 60_000


def generate(count: int = DEFAULT_SCALE, seed: int = 13, start_id: int = 0,
             sensor_count: int = 50,
             readings_per_record: int = READINGS_PER_RECORD) -> Iterator[Dict[str, Any]]:
    """Yield ``count`` sensor report records with deterministic content."""
    rng = random.Random(seed)
    for offset in range(count):
        report_id = start_id + offset
        sensor_id = report_id % sensor_count
        report_time = REPORT_TIME_BASE + (report_id // sensor_count) * REPORT_INTERVAL_MS
        base_temp = 15.0 + (sensor_id % 20)
        # Reading timestamps are sub-second epoch values stored as doubles, so
        # the dataset stays double-dominant like the paper's Table 1 row.
        readings = [
            {"temp": round(base_temp + rng.uniform(-5.0, 5.0), 3),
             "timestamp": (report_time + index * 1000) / 1000.0}
            for index in range(readings_per_record)
        ]
        yield {
            "id": report_id,
            "sensor_id": sensor_id,
            "report_time": report_time,
            "readings": readings,
            "status": {
                "battery_voltage": round(rng.uniform(3.1, 4.2), 3),
                "signal_strength": round(rng.uniform(-90.0, -30.0), 2),
                "uptime_seconds": rng.randrange(0, 10_000_000),
                "memory_free": rng.randrange(1_000, 64_000),
                "cpu_temperature": round(rng.uniform(30.0, 80.0), 2),
                "error_count": rng.randrange(0, 5),
                "firmware": {"major": 2, "minor": rng.randrange(0, 9), "patch": rng.randrange(0, 30)},
            },
            "calibration": {
                "offset": round(rng.uniform(-0.5, 0.5), 4),
                "scale": round(rng.uniform(0.95, 1.05), 4),
                "last_calibrated": REPORT_TIME_BASE - rng.randrange(0, 10 ** 9),
            },
        }


# ---------------------------------------------------------------------------
# Appendix A.3 queries
# ---------------------------------------------------------------------------

#: The four queries as SQL++ text; tests/test_sqlpp_parity.py holds their
#: rows to the reference model.  The paper's Q4 filters to one day out of the
#: dataset's full time range, a ~0.001 % selectivity at its 25 M-record scale;
#: the scaled-down generator spans only minutes of report time, so Q4's window
#: covers two report intervals, selective relative to the generated span.
SQLPP = {
    "Q1": "SELECT VALUE count(*) FROM Sensors AS s UNNEST s.readings AS r",
    "Q2": """
        SELECT max(r.temp) AS max_temp, min(r.temp) AS min_temp
        FROM Sensors AS s UNNEST s.readings AS r
    """,
    "Q3": """
        SELECT sid, avg(r.temp) AS avg_temp
        FROM Sensors AS s UNNEST s.readings AS r
        GROUP BY s.sensor_id AS sid
        ORDER BY avg_temp DESC
        LIMIT 10
    """,
    "Q4": f"""
        SELECT sid, avg(r.temp) AS avg_temp
        FROM Sensors AS s UNNEST s.readings AS r
        WHERE s.report_time > {REPORT_TIME_BASE - 1}
          AND s.report_time < {REPORT_TIME_BASE - 1 + 2 * REPORT_INTERVAL_MS}
        GROUP BY s.sensor_id AS sid
        ORDER BY avg_temp DESC
        LIMIT 10
    """,
}

"""The capacity-curve regression check on kernel efficiency.

:func:`check_capacity_curve` compares host events/s at the smallest and
the largest user count of a sweep, and fails the sweep when the largest
falls below ``1 - tolerance`` of the smallest.
"""

from repro.perf.loadgen import check_capacity_curve


# ------------------------------------- events/s sweep regression check
def _curve(events_large):
    det = [{"users": 10, "admitted": 20, "goodput_tps": 1.0},
           {"users": 50, "admitted": 100, "goodput_tps": 2.0}]
    measured = [{"users": 10, "events_per_sec": 100_000},
                {"users": 50, "events_per_sec": events_large}]
    return check_capacity_curve(det, events_points=measured)


def test_events_per_sec_regression_fails_the_sweep():
    verdict = _curve(events_large=70_000)["events_per_sec"]
    assert verdict["checked"] and not verdict["ok"]
    assert verdict["ratio"] == 0.7


def test_events_per_sec_within_tolerance_passes():
    verdict = _curve(events_large=80_000)["events_per_sec"]
    assert verdict["checked"] and verdict["ok"]
    assert verdict["smallest"]["users"] == 10
    assert verdict["largest"]["users"] == 50


def test_events_check_skips_single_point_sweeps():
    det = [{"users": 10, "admitted": 20, "goodput_tps": 1.0}]
    verdict = check_capacity_curve(
        det, events_points=[{"users": 10, "events_per_sec": 1}])
    assert verdict["events_per_sec"] == {
        "checked": False, "ok": True, "tolerance": 0.25}

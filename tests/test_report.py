from metaracah.report import FAIL, PASS, VerificationReport


def test_add_grid_lists_the_first_four_failures_row_by_row():
    rep = VerificationReport(suite="grid")
    seen = []

    def predicate(i, j):
        seen.append((i, j))
        return i != j

    ok = rep.add_grid("diag", "off-diagonal only", 4, predicate, axes="(k, m)")
    assert ok is False
    assert seen == [(i, j) for i in range(5) for j in range(5)]
    (check,) = rep.checks
    assert check.status == FAIL
    assert check.detail == "failing (k, m): [(0, 0), (1, 1), (2, 2), (3, 3)]"


def test_add_grid_default_axes_and_pass():
    rep = VerificationReport(suite="grid")
    assert not rep.add_grid("row", "row 0 only fails", 2, lambda m, n: m > 0)
    assert rep.checks[0].detail == "failing (m, n): [(0, 0), (0, 1), (0, 2)]"
    assert rep.add_grid("all", "always holds", 2, lambda m, n: True)
    assert rep.checks[1].status == PASS
    assert rep.checks[1].detail == ""

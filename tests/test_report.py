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


def test_add_line_lists_every_failing_index():
    rep = VerificationReport(suite="line")
    seen = []

    def predicate(k):
        seen.append(k)
        return k % 2 == 1

    assert rep.add_line("odd", "odd indices only", 5, predicate, axis="k") is False
    assert seen == list(range(6))
    assert rep.checks[0].status == FAIL
    assert rep.checks[0].detail == "failing k: [0, 2, 4]"
    assert rep.add_line("all", "always holds", 3, lambda n: True)
    assert (rep.checks[1].status, rep.checks[1].detail) == (PASS, "")
    rep.add_line("last", "fails at 3 only", 3, lambda n: n != 3)
    assert rep.checks[2].detail == "failing n: [3]"

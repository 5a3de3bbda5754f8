from metaracah.matrices import RationalMatrix
from metaracah.report import FAIL, PASS, VerificationReport


def test_add_grid_lists_the_first_four_failures_row_by_row():
    rep = VerificationReport(suite="grid")
    ok = rep.add_grid("diag", "off-diagonal only", RationalMatrix.identity(5), axes="(k, m)")
    assert ok is False
    (check,) = rep.checks
    assert check.status == FAIL
    assert check.detail == "failing (k, m): [(0, 0), (1, 1), (2, 2), (3, 3)]"


def test_add_grid_default_axes_and_pass():
    rep = VerificationReport(suite="grid")
    row_zero = RationalMatrix([[1, -2, 3], [0, 0, 0], [0, 0, 0]])
    assert not rep.add_grid("row", "row 0 only fails", row_zero)
    assert rep.checks[0].detail == "failing (m, n): [(0, 0), (0, 1), (0, 2)]"
    assert rep.add_grid("all", "always holds", RationalMatrix.zeros(3))
    assert rep.checks[1].status == PASS
    assert rep.checks[1].detail == ""


def written(m):
    """Whether m holds its Fraction entries; an integer form writes them on
    first read."""
    try:
        RationalMatrix._e.__get__(m)
    except AttributeError:
        return False
    return True


def test_add_grid_reads_a_residual_without_writing_its_entries():
    # the failing points are read off the integer form of the residual
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[1, 2], [3, 5]])
    rep = VerificationReport(suite="grid")
    same, off = a * a - a * a, a * b - a * a
    assert rep.add_grid("same", "a a - a a = 0", same)
    assert not rep.add_grid("off", "a b = a a", off)
    assert rep.checks[1].detail == "failing (m, n): [(0, 1), (1, 1)]"
    assert not written(same) and not written(off)
    assert off[0, 1] == 2 and written(off)


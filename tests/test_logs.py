"""Golden iteration logs of catalog examples 1 to 6.

Each entry pins the vertex v, alpha and beta of every iteration row and the
incumbent's h.  A change that keeps the algorithm keeps these numbers: they
are compared within 1e-9 * (1 + |ref|), so a refactor that only reorders
floating-point work passes and one that moves an iterate fails.
"""

import pytest

from svbilevel import bnb, catalog

# example: (epsilon, incumbent h, [(v, alpha, beta), ...])
GOLDEN = {
    1: (1e-5, 1.792524278433615, [
        ((6.699096271150834, 4.891392193321525),
         1.8919018119232207, 1.2500000000000464),
        ((6.699096271150834, -0.9019743172654078),
         1.8919018119232207, 1.3414486345309031),
        ((-2.7987733910455272, 4.891392193321525),
         1.792524278433615, 1.5825631590134328),
        ((-2.7987733910455272, -0.6386876701277187),
         1.792524278433615, 1.5825631590134328),
        ((-2.9681550298651858, -0.6386876701277187),
         1.792524278433615, 1.6513078041242228),
        ((-3.0533613420306933, -0.6386876701277187),
         1.792524278433615, 1.690712225502373),
        ((-3.103267130838845, -0.6386876701277187),
         1.792524278433615, 1.7154933891116444),
        ((-3.242344955428973, 4.891392193321525),
         1.792524278433615, 1.7925167292103048),
    ]),
    2: (1e-2, 0.3232387158786341, [
        ((0.5925925925925926, 0.5),
         0.3232387158786341, 0.26315789473684065),
        ((0.5925925925925926, -4.118649860388239),
         0.3232387158786341, 0.27479326218046146),
        ((0.5925925925925926, -4.2903752176089895),
         0.3232387158786341, 0.30006376359008347),
        ((0.5925925925925926, -4.324961997185997),
         0.3232387158786341, 0.30978688366600365),
        ((0.28202510090102095, -4.118649860388239),
         0.3232387158786341, 0.3135319393764078),
    ]),
    3: (1e-2, 1.1, [
    ]),
    4: (1e-2, -1.7889231096131468, [
        ((3.0, 3.0),
         -1.4000125890301645, -1.8000000005430121),
        ((-0.4999874109698359, 3.0),
         -1.7889231096131468, -1.8000000005429833),
    ]),
    5: (1e-2, 0.4990009947203551, [
        ((1694.0, 1695.25),
         0.4990009947203551, 0.2500000000000269),
        ((1694.0, 0.13700105076554792),
         0.4990009947203551, 0.2668645205217913),
        ((1694.0, 1.992739227865692e-05),
         0.4990009947203551, 0.495555805602908),
    ]),
    6: (1e-2, 0.009337068160597576, [
        ((1.5, 1.0, 1.0, 1.25),
         0.009337068160597576, 0.009336076252063147),
    ]),
}


def close(got, ref):
    return abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("number", sorted(GOLDEN))
def test_log_and_incumbent_match(number):
    epsilon, h, rows = GOLDEN[number]
    report = bnb.solve(catalog.load_example(number),
                       bnb.SolverConfig(epsilon=epsilon))
    assert report.status is bnb.SolverStatus.OPTIMAL
    assert close(report.incumbent.h, h)
    assert len(report.log) == len(rows)
    for row, (v, alpha, beta) in zip(report.log, rows):
        assert len(row.v) == len(v)
        assert all(close(a, b) for a, b in zip(row.v, v)), (row.k, row.v)
        assert close(row.alpha, alpha), (row.k, row.alpha)
        assert close(row.beta, beta), (row.k, row.beta)

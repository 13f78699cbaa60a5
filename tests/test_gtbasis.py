import pytest

from qso_reps import (CLASSICAL, NONCLASSICAL, HalfInt, IrrepLabel,
                      ValidationError, branching_set, dimension,
                      enumerate_patterns, l_coords)
from qso_reps.gtbasis import branch_rows, covers, rows_below

from oracles import oracle_tableaux

H = HalfInt


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(H(t) for t in twice_weight), eps)


def test_label_validation():
    with pytest.raises(ValidationError):
        lab(4, (2, 4))  # not decreasing
    with pytest.raises(ValidationError):
        lab(4, (2, 1))  # mixed parity
    with pytest.raises(ValidationError):
        lab(3, (-2,))  # negative at odd rank
    with pytest.raises(ValidationError):
        lab(3, (1,), NONCLASSICAL)  # missing eps
    with pytest.raises(ValidationError):
        lab(3, (2,), NONCLASSICAL, (1, 1))  # integral weight
    lab(4, (2, -2))  # signed last entry is fine at even rank


def test_so3_pattern_examples():
    basis = enumerate_patterns(lab(3, (2,)))
    assert basis.dim == 3
    assert [p.m12.twice for p in basis.patterns] == [2, 0, -2]
    ncl = enumerate_patterns(lab(3, (3,), NONCLASSICAL, (1, 1)))
    assert ncl.dim == 2
    assert [p.m12.twice for p in ncl.patterns] == [3, 1]


def test_so4_vector_patterns():
    basis = enumerate_patterns(lab(4, (2, 0)))
    assert basis.dim == 4
    assert oracle_tableaux(basis.label) == {
        tuple(tuple(e.twice for e in row) for row in p.rows)
        for p in basis.patterns}


@pytest.mark.parametrize("label", [
    lab(3, (4,)),
    lab(3, (3,)),
    lab(4, (2, 2)),
    lab(4, (4, -2)),
    lab(5, (2, 0)),
    lab(5, (4, 2)),
    lab(6, (2, 2, 0)),
    lab(6, (2, 2, -2)),
    lab(3, (5,), NONCLASSICAL, (1, -1)),
    lab(4, (3, 1), NONCLASSICAL, (1, 1, 1)),
    lab(5, (3, 1), NONCLASSICAL, (-1, 1, -1, 1)),
    lab(6, (3, 3, 1), NONCLASSICAL, (1, 1, 1, 1, 1)),
])
def test_enumeration_matches_bruteforce(label):
    basis = enumerate_patterns(label)
    got = {tuple(tuple(e.twice for e in row) for row in p.rows)
           for p in basis.patterns}
    assert got == oracle_tableaux(label)
    assert basis.dim == len(got)


def test_enumeration_order_is_lexicographic_decreasing():
    basis = enumerate_patterns(lab(5, (4, 2)))
    keys = [tuple(e.twice for row in p.rows[1:] for e in row)
            for p in basis.patterns]
    assert keys == sorted(keys, reverse=True)


def test_l_coords():
    assert l_coords((H(2), H(0)), 5) == (H(6), H(2))       # (1,0) -> (3,1)
    assert l_coords((H(2), H(0)), 4) == (H(4), H(0))       # (1,0) -> (2,0)
    assert l_coords((H(3),), 2) == (H(3),)                 # offset 0
    with pytest.raises(ValidationError):
        l_coords((H(2),), 5)


def test_branching_examples():
    rows = [t.row for t in branching_set((H(2), H(0)), 4, CLASSICAL)]
    assert rows == [(H(4), H(0)), (H(2), H(2)), (H(0), H(0)), (H(2), H(-2))]
    assert [t.row for t in branching_set((H(0),), 3, CLASSICAL)] == [(H(2),)]
    targets = branching_set((H(3), H(1)), 4, NONCLASSICAL)
    assert [(t.row, t.tag) for t in targets] == [
        ((H(5), H(1)), "up"), ((H(3), H(3)), "up"),
        ((H(1), H(1)), "down"), ((H(3), H(1)), "replaced")]


def test_branching_self_rules():
    # odd level keeps the weight itself unless its last entry vanishes
    tags = [t.tag for t in branching_set((H(2), H(2)), 5, CLASSICAL)]
    assert "self" in tags
    tags = [t.tag for t in branching_set((H(2), H(0)), 5, CLASSICAL)]
    assert "self" not in tags
    # nonclassical odd level always keeps it
    tags = [t.tag for t in branching_set((H(1),), 3, NONCLASSICAL)]
    assert "self" in tags


def test_branching_consistency_with_betweenness():
    cases = [
        ((H(2), H(0)), 4, CLASSICAL), ((H(4), H(2)), 5, CLASSICAL),
        ((H(2),), 3, CLASSICAL), ((H(0),), 3, CLASSICAL),
        ((H(3), H(1)), 4, NONCLASSICAL), ((H(3), H(1)), 5, NONCLASSICAL),
        ((H(1),), 3, NONCLASSICAL),
    ]
    for m, level, kind in cases:
        p = len(m)
        lifted = 2 * p + 1  # same-row-size interleaving parity
        for t in branching_set(m, level, kind):
            if t.tag in ("self", "replaced"):
                assert t.row == m
                continue
            diffs = [t.row[i].twice - m[i].twice for i in range(p)]
            assert sorted(map(abs, diffs)) == [0] * (p - 1) + [2]
            # the interleaving orientation applies on the unsigned sector
            if all(e >= 0 for e in m) and all(e >= 0 for e in t.row):
                if t.tag == "up":
                    assert covers(t.row, m, lifted, kind)
                else:
                    assert covers(m, t.row, lifted, kind)


def test_vector_dimension_is_n():
    for n in range(3, 7):
        weight = tuple([2] + [0] * (n // 2 - 1))
        assert dimension(lab(n, weight)) == n


def test_so3_dimension_formula():
    for twice_l in range(0, 9):
        assert dimension(lab(3, (twice_l,))) == twice_l + 1


def test_so5_vector_dimension():
    assert dimension(lab(5, (2, 0))) == 5


@pytest.mark.parametrize("label", [
    lab(3, (2,)), lab(3, (1,)), lab(4, (2, 0)), lab(4, (2, 2)),
    lab(5, (2, 2)), lab(5, (4, 2)), lab(6, (2, 0, 0)), lab(6, (2, 2, 2)),
    lab(3, (3,), NONCLASSICAL, (1, 1)),
    lab(4, (3, 1), NONCLASSICAL, (1, -1, 1)),
    lab(5, (3, 3), NONCLASSICAL, (1, 1, 1, 1)),
    lab(6, (3, 1, 1), NONCLASSICAL, (1, -1, 1, -1, 1)),
])
def test_branching_sum_rule(label):
    total = sum(dimension(label.with_weight(t.row))
                for t in branching_set(label.m_top, label.n, label.kind))
    assert total == label.n * dimension(label)


def test_branch_membership_includes_replaced():
    rows = branch_rows((H(1), H(1)), 4, NONCLASSICAL)
    assert (H(1), H(1)) in rows  # the replaced slot
    assert (H(3), H(1)) in rows


def test_json_roundtrip_deterministic():
    basis = enumerate_patterns(lab(4, (2, 2)))
    # a fresh enumeration, past the cache, gives the same order
    assert basis.patterns == enumerate_patterns.__wrapped__(lab(4, (2, 2))).patterns
    assert basis.patterns[0].rows == ((H(2), H(2)), (H(2),), (H(2),))


def test_rows_below_matches_covers():
    upper = (H(4), H(2))
    for level in (4, 5):
        for low in rows_below(upper, level, CLASSICAL):
            assert covers(upper, low, level, CLASSICAL)

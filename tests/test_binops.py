from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binact import (
    builtin_group,
    identity_op,
    invertible_group,
    is_invertible,
    make_binary_op,
    make_group,
    make_ordinary_action,
    op_from_json,
    op_to_json,
    star,
    try_invert,
    validate_action,
)
from binact.errors import (
    CapExceeded,
    CarrierMismatch,
    MalformedTable,
    NotInvertible,
    ShapeMismatch,
)


def all_ops(n):
    for flat in product(range(n), repeat=n * n):
        yield make_binary_op(tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))


def test_identity_op_is_two_sided_identity_size2():
    e = identity_op(2)
    for f in all_ops(2):
        assert star(e, f) == f
        assert star(f, e) == f


def test_star_associative_exhaustive_size2():
    ops = list(all_ops(2))
    for f in ops:
        for g in ops:
            fg = star(f, g)
            for h in ops:
                assert star(fg, h) == star(f, star(g, h))


def test_xor_is_self_inverse():
    xor = make_binary_op(((1, 0), (1, 0)))
    assert star(xor, xor) == identity_op(2)
    inv = try_invert(xor)
    assert inv == xor


def test_projection_not_invertible():
    proj = make_binary_op(((0, 0), (1, 1)))  # f(x, x') = x
    assert star(proj, proj) == proj
    assert not is_invertible(proj)
    with pytest.raises(NotInvertible) as exc:
        try_invert(proj)
    assert exc.value.row == 0


def test_try_invert_output_is_two_sided():
    f = make_binary_op(((1, 0, 2), (2, 0, 1), (0, 1, 2)))
    inv = try_invert(f)
    assert star(f, inv) == identity_op(3)
    assert star(inv, f) == identity_op(3)


def test_invertible_group_sizes():
    # (n!)^n invertible operations on n points
    assert len(invertible_group(1)) == 1
    assert len(invertible_group(2)) == 4
    assert len(invertible_group(3)) == 216
    with pytest.raises(CapExceeded):
        invertible_group(5)
    assert len(invertible_group(2, cap=2)) == 4


def test_invertible_group_members_are_exactly_all_rows_bijective():
    listed = set(invertible_group(2))
    for f in all_ops(2):
        assert (f in listed) == all(sorted(f.row(t)) == [0, 1] for t in range(2))


def test_star_requires_matching_carriers():
    with pytest.raises(CarrierMismatch):
        star(identity_op(2), identity_op(3))


def test_make_binary_op_rejects_ragged_or_out_of_range():
    with pytest.raises(MalformedTable):
        make_binary_op(((0, 1), (0,)))
    with pytest.raises(MalformedTable):
        make_binary_op(((0, 2), (0, 1)))


# bad rows for a group or operation, a Z2 ordinary action, or (as both
# slices) a Z2 binary action, and the part of the message that names the
# offending index and value, where there is one
BAD_TABLES = {
    "ragged row": ([[0, 1], [0]], "[1] has length 1, expected 2"),
    "out-of-range entry": ([[0, 1], [1, 2]], "[1][1] = 2 out of range 0..1"),
    "empty table": ([], None),
    "wrong leading length": ([[0, 1], [1, 0], [0, 1]], None),
    "string entry": ([[0, 1], [1, "x"]], "[1][1] = 'x' is not an integer"),
    "float entry": ([[0, 1], [1, 1.9]], "[1][1] = 1.9 is not an integer"),
}


@pytest.mark.parametrize("case", list(BAD_TABLES))
@pytest.mark.parametrize("caller, error", [
    (make_group, MalformedTable),
    (make_binary_op, MalformedTable),
    (lambda rows: validate_action(builtin_group("z2"), [rows, rows]), ShapeMismatch),
    (lambda rows: make_ordinary_action(builtin_group("z2"), rows), ShapeMismatch),
], ids=["make_group", "make_binary_op", "validate_action", "make_ordinary_action"])
def test_one_table_validator_for_every_caller(case, caller, error):
    rows, named = BAD_TABLES[case]
    with pytest.raises(error) as exc:
        caller(rows)
    assert type(exc.value) is error
    if named is not None:
        assert named in str(exc.value)


def test_op_json_round_trip():
    f = make_binary_op(((2, 0, 1), (1, 1, 1), (0, 1, 2)))
    assert op_from_json(op_to_json(f)) == f
    with pytest.raises(MalformedTable):
        op_from_json({"size": 2, "table": [[0, 1, 2], [0, 1, 2], [0, 1, 2]]})


op3 = st.tuples(*[st.tuples(*[st.integers(0, 2)] * 3)] * 3)


@settings(max_examples=60, deadline=None)
@given(op3, op3, op3)
def test_star_associative_sampled_size3(t1, t2, t3):
    f, g, h = make_binary_op(t1), make_binary_op(t2), make_binary_op(t3)
    assert star(star(f, g), h) == star(f, star(g, h))
    assert star(identity_op(3), f) == f
    assert star(f, identity_op(3)) == f

"""Every number that enters the library is read in one grammar: an int (not a
bool), a Fraction, or a string p or p/q in ASCII digits; each vector the
public entries read is checked against the cone's dimension."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import uppersets
from uppersets import Cone, DimensionMismatchError, ValidationError, decompose_nonneg, linalg, orthant
from uppersets.cone import checked_vector
from uppersets.integral import ParametricChain, weighted_support_sum
from uppersets.linalg import NEG_INF, POS_INF, primitive_halfspace, read_number, vec
from uppersets.measure_space import (
    AtomicMeasure,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    halfspace_function,
    point_minus_cone_rows,
    preimage,
    preimage_identity_check,
    space,
    vector_plus_cone,
)
from uppersets.upperset import canonicalize, cone_upper_set, halfspace_set, point_plus_cone

REFUSED = [0.1, 1e1, 2.0, "1e1", "0_5", " 3", Decimal("1"), True, "٣", "inf"]
ACCEPTED = [3, Fraction(1, 2), "-1/2"]
R2, SP = orthant(2), space("a", "b")
D = point_plus_cone(R2, (1, 1))
F = SimpleSetFunction(SP, (cone_upper_set(R2), point_plus_cone(R2, (1, 0))))

# each entry: the field its refusal names, and the entry as a function of one number x
ENTRIES = {
    "vec": ("vector entry", lambda x: vec((x, 1))),
    "checked_vector": ("vector entry", lambda x: checked_vector(2, (x, 1))),
    "point": ("point entry", lambda x: point_plus_cone(R2, (x, 1))),
    "ray": ("ray entry", lambda x: canonicalize(R2, points=[(0, 0)], rays=[(x, 1)])),
    "normal": ("halfspace normal entry", lambda x: canonicalize(R2, halfspaces=[((x, 1), 0)])),
    "direction": ("direction entry", lambda x: D.support((x, 1))),
    "vector-function": ("vector entry", lambda x: VectorFunction(SP, ((x, 1), (0, 0)))),
    "cone-generator": ("cone generator entry", lambda x: Cone(2, ((1, 0), (0, 1), (x, 1)), (1, 1))),
    "interior-point": ("interior point entry", lambda x: Cone(2, ((1, 0), (-1, 0), (0, 1)), (x, 1))),
    "primitive_halfspace": ("halfspace offset", lambda x: primitive_halfspace((2, 2), x)),
    "halfspace_set": ("halfspace offset", lambda x: halfspace_set(R2, (1, 1), x)),
    "canonicalize-offset": ("halfspace offset", lambda x: canonicalize(R2, halfspaces=[((1, 1), x)])),
    "measure": ("measure weight", lambda x: AtomicMeasure(SP, (x, 1))),
    "measure-from_map": ("measure weight", lambda x: AtomicMeasure.from_map(SP, {"a": x})),
    "scalar": ("scalar value", lambda x: ScalarFunction(SP, (x, 1))),
    "scale": ("scale factor", lambda x: D.scale(x)),
    "preimage-offset": ("halfspace offset", lambda x: preimage(F, [((1, 0), x)])),
    "preimage-normal": ("halfspace normal entry", lambda x: preimage(F, [((x, 1), 0)])),
    "chain-rate": ("parametric chain rate", lambda x: ParametricChain(SP, R2, (1, 2), x)),
    "chain-indices": ("parametric chain index", lambda x: ParametricChain(SP, R2, (x, 5))),
    "cone-dimension": ("cone dimension", lambda x: Cone(x, ((1, 0), (0, 1)), (1, 1))),
}

# the public entries that read a vector over R2, each as a function of the vector v
DIMENSIONS = {
    "support": lambda v: D.support(v),
    "member": lambda v: D.member(v),
    "translate": lambda v: D.translate(v),
    "supporting_halfspace": lambda v: D.supporting_halfspace(v),
    "point_plus_cone": lambda v: point_plus_cone(R2, v),
    "halfspace_set": lambda v: halfspace_set(R2, v, 0),
    "canonicalize-normal": lambda v: canonicalize(R2, halfspaces=[(v, 0)]),
    "canonicalize-point": lambda v: canonicalize(R2, points=[v]),
    "canonicalize-ray": lambda v: canonicalize(R2, points=[(0, 0)], rays=[v]),
    "canonicalize-lineality": lambda v: canonicalize(R2, points=[(0, 0)], lineality=[v]),
    "cone-contains": lambda v: R2.contains(v),
    "cone-interior-point": lambda v: Cone(2, ((1, 0), (0, 1)), v),
    "weighted_support_sum": lambda v: weighted_support_sum(F, AtomicMeasure(SP, (1, 1)), v),
    "preimage-row": lambda v: preimage(F, [(v, 0)]),
    "point_minus_cone_rows": lambda v: point_minus_cone_rows(R2, v),
    "preimage_identity_check": lambda v: preimage_identity_check(F, v),
    "set-function-translate": lambda v: F.translate(VectorFunction(SP, (v, v))),
    "set-function-supporting": lambda v: F.supporting(v),
    "vector_plus_cone": lambda v: vector_plus_cone(VectorFunction(SP, (v, v)), R2),
    "halfspace_function": lambda v: halfspace_function(SP, R2, v, ScalarFunction(SP, (0, 1))),
    "decompose_nonneg": lambda v: decompose_nonneg(VectorFunction(SP, (v, v)), R2),
}


def _outcome(build, x):
    """The entry's result for x, or the text of the ValidationError it raises."""
    try:
        return build(x)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "x, accepted",
    [(x, False) for x in REFUSED] + [(x, True) for x in ACCEPTED],
    ids=[f"refuses-{x!r}" for x in REFUSED] + [f"accepts-{x!r}" for x in ACCEPTED],
)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_entry_reads_a_number_in_the_workspace_grammar(entry, x, accepted):
    # an accepted number answers as its Fraction does: the same result, or the
    # same domain refusal (a negative weight or scale factor); an integer entry
    # takes 3 only
    field, build = ENTRIES[entry]
    integer = entry in ("chain-indices", "cone-dimension")  # reads p only
    if integer and type(x) is not int:
        accepted = False
    if not accepted:
        with pytest.raises(ValidationError) as exc:
            build(x)
        assert str(exc.value).startswith(f"{field} {x!r} is not ")
        return
    reference = x if integer else Fraction(x)
    outcome = _outcome(build, x)
    assert outcome == _outcome(build, reference)
    assert " is not " not in str(outcome)


@pytest.mark.parametrize("entry", list(DIMENSIONS))
def test_every_vector_entry_refuses_a_vector_one_entry_too_long(entry):
    DIMENSIONS[entry]((1, 1))
    with pytest.raises(DimensionMismatchError):
        DIMENSIONS[entry]((1, 1, 0))


def test_the_reader_keeps_its_callers_messages_and_forms():
    assert uppersets.ValidationError is uppersets.cone.ValidationError is linalg.ValidationError
    assert read_number("-7/2", "unused {!r}") == Fraction(-7, 2)
    assert type(read_number(3, "unused {!r}")) is Fraction
    assert read_number("12", "unused {!r}", integer=True) == 12
    for text, integer in (("1/0", False), ("1/2", True), ("", True), ("3\n", False)):
        with pytest.raises(ValidationError) as exc:
            read_number(text, "bad count {!r}", integer)
        assert str(exc.value) == f"bad count {text!r}"
    with pytest.raises(ValidationError) as exc:
        read_number(Fraction(2), "dimension must be an integer", integer=True)
    assert str(exc.value) == "dimension must be an integer"


def test_only_the_float_infinities_pass_as_sentinels():
    # -inf is a scalar value and ±inf a halfspace offset only as floats; a
    # Decimal infinity is a number outside the grammar
    assert ScalarFunction(SP, (float("-inf"), 1)).values == (NEG_INF, 1)
    with pytest.raises(ValidationError, match=r"scalar value Decimal\('-Infinity'\) is not"):
        ScalarFunction(SP, (Decimal("-Infinity"), 1))
    assert halfspace_set(R2, (1, 1), NEG_INF).is_full and halfspace_set(R2, (1, 1), POS_INF).is_empty
    assert canonicalize(R2, halfspaces=[((1, 1), NEG_INF)]).is_full
    assert canonicalize(R2, halfspaces=[((1, 1), POS_INF)]).is_empty
    for b in (Decimal("Infinity"), Decimal("-Infinity")):  # were taken as POS_INF and NEG_INF
        for build in (lambda: halfspace_set(R2, (1, 1), b), lambda: canonicalize(R2, halfspaces=[((1, 1), b)])):
            with pytest.raises(ValidationError) as exc:
                build()
            assert str(exc.value).startswith(f"halfspace offset {b!r} is not ")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits")
def test_a_number_with_more_digits_than_int_reads_is_refused():
    # int() and Fraction() raised their own ValueError past the digit limit
    many = "1" * 5000
    for text, integer in ((many, False), (many, True), (f"1/{many}", False), (f"-{many}/3", False)):
        with pytest.raises(ValidationError) as exc:
            read_number(text, "bad number {!r}", integer)
        assert str(exc.value) == f"bad number {text!r}"

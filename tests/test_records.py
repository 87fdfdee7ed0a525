"""The package's records and exact values: every one is immutable, the
ones that validate their data refuse a bad value when they are built, and
the exact values refuse an operand of a foreign type."""

import operator
from fractions import Fraction as F

import pytest

from bihindex.bumps import CosPowerBump, PolynomialBump
from bihindex.exact import QPi, QuadExt, Surd
from bihindex.legendre import descartes_lemma_check, legendre_index_nullity, verify_p5_factorization
from bihindex.matrices import ExactMatrix
from bihindex.noncompact import CubicPhase, NotProperError, SectionPair
from bihindex.polynomials import IntPolynomial
from bihindex.reduced import ReducedProblem, bessel_nullity_check
from bihindex.scan import scan_row
from bihindex.torus import index_nullity, spectrum

RECORDS = {
    "MergedEigenvalue": lambda: spectrum(1, 1)[0],
    "IndexReport": lambda: index_nullity(2),
    "ScanRow": lambda: scan_row(2),
    "FactorizationReport": lambda: verify_p5_factorization(1, 1),
    "DescartesReport": lambda: descartes_lemma_check(3, 3),
    "LegendreLedger": legendre_index_nullity,
    "SectionPair": lambda: SectionPair(f2=CosPowerBump(0, 6)),
    "BesselNullityReport": bessel_nullity_check,
    "CubicPhase": lambda: CubicPhase(1, 0, -2),
    "ReducedProblem": lambda: ReducedProblem(2, 1, b=2),
    "PolynomialBump": lambda: PolynomialBump.make(0, 1),
    "CosPowerBump": lambda: CosPowerBump(0, 6),
    "QuadExt": lambda: QuadExt(1, 2),
    "Surd": lambda: Surd(1, 2),
    "QPi": lambda: QPi((F(-1, 2), 0, 3)),
    "ExactMatrix": lambda: ExactMatrix([[1]], [[0]]),
    "IntPolynomial": lambda: IntPolynomial([1, 2]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = getattr(record, "_fields", type(record).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0
    with pytest.raises(AttributeError):
        delattr(record, field)


# each exact value with the binary operators it defines beside ==
OPERATORS = {
    "QuadExt": (operator.add, operator.mul),
    "Surd": (operator.lt,),
    "QPi": (operator.add, operator.sub, operator.mul, operator.lt),
    "ExactMatrix": (),
    "IntPolynomial": (),
}


@pytest.mark.parametrize("foreign", ["1", 1.5, None, True], ids=["str", "float", "none", "bool"])
@pytest.mark.parametrize("name", OPERATORS)
def test_exact_values_refuse_a_foreign_operand(name, foreign):
    # the methods return NotImplemented: == falls back to identity, the others raise
    value = RECORDS[name]()
    assert (value == foreign) is False and (value != foreign) is True
    for op in OPERATORS[name]:
        with pytest.raises(TypeError):
            op(value, foreign)


def test_exact_values_take_int_and_fraction_operands():
    assert QPi((0, 1)) < F(22, 7) and not QPi((0, 1)) < 3
    assert Surd(0, 2) < F(3, 2) and not Surd(0, 2) < 1
    assert QuadExt(3) == 3 and QuadExt(3) != 4


REFUSED = [
    ("phase-a-b-zero", CubicPhase, (0, 0, 1, 5), NotProperError),
    ("phase-float", CubicPhase, (1, 0.5, 1), TypeError),
    # text is parsed by the CLI only, so a record refuses it like a float
    ("phase-text", CubicPhase, (1, 0, "sqrt(2)"), TypeError),
    ("phase-bool", CubicPhase, (1, True, 0), TypeError),
    ("reduced-n-1", ReducedProblem, (1, 1), ValueError),
    ("reduced-n-float", ReducedProblem, (3.0, 1), TypeError),
    ("reduced-radius-bool", ReducedProblem, (2, True), TypeError),
    ("reduced-radius-text", ReducedProblem, (2, "1/2"), TypeError),
    ("reduced-radius-0", ReducedProblem, (2, 0), ValueError),
    ("reduced-radius-negative", ReducedProblem, (2, F(-1, 2)), ValueError),
    ("reduced-b-0", ReducedProblem, (2, 1, 0), ValueError),
    ("reduced-b-negative", ReducedProblem, (2, 1, -3), ValueError),
    ("bump-halfwidth-0", PolynomialBump, (0, 0, (1,)), ValueError),
    ("bump-halfwidth-negative", PolynomialBump, (0, F(-1, 3), (1,)), ValueError),
    ("cos-power-odd", CosPowerBump, (0, 7), ValueError),
    ("cos-power-4", CosPowerBump, (0, 4), ValueError),
    ("cos-power-float", CosPowerBump, (0, 6.0), TypeError),
    ("cos-center-text", CosPowerBump, ("0", 6), TypeError),
    ("bump-halfwidth-text", PolynomialBump, (0, "1/2", (1,)), TypeError),
    ("polynomial-float", IntPolynomial, ([1, 1.5],), TypeError),
    ("quadext-float", QuadExt, (0.5,), TypeError),
    ("surd-float", Surd, (1.5, 2), TypeError),
    ("qpi-text", QPi, (("0.1",),), TypeError),
    ("qpi-float", QPi, ((0.1,),), TypeError),
    ("qpi-bool", QPi, ((True,),), TypeError),
]


@pytest.mark.parametrize("cls,args,error", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_validated_records_refuse_bad_input(cls, args, error):
    with pytest.raises(error):
        cls(*args)


VALIDATED = (CubicPhase, ReducedProblem, PolynomialBump, CosPowerBump)


@pytest.mark.parametrize("cls,args,error", [r[1:] for r in REFUSED if r[1] in VALIDATED],
                         ids=[r[0] for r in REFUSED if r[1] in VALIDATED])
def test_validated_records_refuse_bad_input_through_make_and_replace(cls, args, error):
    # namedtuple's own _make skips __new__, and _replace calls _make
    with pytest.raises(error):
        cls._make(args)
    valid = RECORDS[cls.__name__]()
    with pytest.raises(error):
        valid._replace(**dict(zip(cls._fields, args)))


def test_make_and_replace_build_valid_records():
    assert CubicPhase(1, 0, -2)._replace(c=F(1, 2)) == CubicPhase(1, 0, F(1, 2))
    assert ReducedProblem._make([3, 1]) == ReducedProblem(3, 1)
    assert type(PolynomialBump.make(0, 1)._replace(center=2).center) is F
    assert CosPowerBump(0, 6)._replace(power=8) == CosPowerBump(0, 8)


def test_validated_records_store_exact_values():
    assert CubicPhase(1, F(1, 2), 0) == (1, F(1, 2), 0, 0)
    assert all(type(x) is F for x in CubicPhase(1, 0, 0))
    problem = ReducedProblem(n=3, radius=F(2, 3), b=2)
    assert (problem.radius, problem.b) == (F(2, 3), F(2)) and type(problem.b) is F
    sphere = ReducedProblem(2, 1)  # the round sphere is the default b = 1
    assert sphere.b == 1 and type(sphere.b) is F
    bump = PolynomialBump(center=1, halfwidth=F(1, 2), ycoeffs=[1, 0, -1])
    assert bump.ycoeffs == (F(1), F(0), F(-1)) and type(bump.center) is F
    assert type(CosPowerBump(1, 6).center) is F


REPRS = {
    "QuadExt(1, 2)": lambda: QuadExt(1, 2),
    "Surd(p=1, s=2, q=1, branch=+1)": lambda: Surd(1, 2),
    "QPi(3*pi^2 - 1/2)": lambda: QPi((F(-1, 2), 0, 3)),
    "QPi(0)": QPi,
    "ExactMatrix(order=2)": lambda: ExactMatrix([[1, 2], [2, 0]], [[0, 1], [1, 0]]),
    "IntPolynomial([1, 0, -2])": lambda: IntPolynomial([1, 0, -2]),
}


@pytest.mark.parametrize("text", REPRS)
def test_exact_value_reprs(text):
    assert repr(REPRS[text]()) == text


def test_quadext_str():
    # the form demos 01 and 04 print block entries in
    assert str(QuadExt(3, -2)) == "(3-2*sqrt2)"
    assert str(QuadExt(-1, 5)) == "(-1+5*sqrt2)"
    assert str(QuadExt(0, -4)) == "-4*sqrt2"
    assert str(QuadExt(17)) == "17"


def test_index_report_repr_leaves_out_the_evidence():
    report = index_nullity(155)
    assert len(report.negative_runs) > 100
    assert repr(report) == "IndexReport(k=155, index=89321, nullity=5, f=22176, g=0)"

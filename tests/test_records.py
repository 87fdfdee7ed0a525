"""The package's records and exact values: every one is immutable, and the
ones that validate their data refuse a bad value when they are built."""

from fractions import Fraction as F

import pytest

from bihindex.bumps import CosPowerBump, PolynomialBump
from bihindex.exact import QuadExt, Surd
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


REFUSED = [
    ("phase-a-b-zero", CubicPhase, (0, 0, 1, 5), NotProperError),
    ("phase-float", CubicPhase, (1, 0.5, 1), TypeError),
    ("phase-text", CubicPhase, (1, 0, "sqrt(2)"), ValueError),
    ("reduced-n-1", ReducedProblem, (1, 1), ValueError),
    ("reduced-radius-0", ReducedProblem, (2, 0), ValueError),
    ("reduced-radius-negative", ReducedProblem, (2, F(-1, 2)), ValueError),
    ("reduced-b-0", ReducedProblem, (2, 1, 0), ValueError),
    ("reduced-b-negative", ReducedProblem, (2, 1, -3), ValueError),
    ("bump-halfwidth-0", PolynomialBump, (0, 0, (1,)), ValueError),
    ("bump-halfwidth-negative", PolynomialBump, (0, F(-1, 3), (1,)), ValueError),
    ("cos-power-odd", CosPowerBump, (0, 7), ValueError),
    ("cos-power-4", CosPowerBump, (0, 4), ValueError),
    ("polynomial-float", IntPolynomial, ([1, 1.5],), TypeError),
]


@pytest.mark.parametrize("cls,args,error", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_validated_records_refuse_bad_input(cls, args, error):
    with pytest.raises(error):
        cls(*args)


def test_validated_records_store_exact_values():
    assert CubicPhase(1, "1/2", 0) == (1, F(1, 2), 0, 0)
    assert all(type(x) is F for x in CubicPhase(1, 0, 0))
    problem = ReducedProblem(n=3, radius="2/3", b=1)
    assert (problem.radius, problem.b) == (F(2, 3), F(1)) and type(problem.b) is F
    assert ReducedProblem(2, 1).b is None
    bump = PolynomialBump(center=1, halfwidth="1/2", ycoeffs=[1, 0, -1])
    assert bump.ycoeffs == (F(1), F(0), F(-1)) and type(bump.center) is F
    assert type(CosPowerBump(1, 6).center) is F


def test_index_report_repr_leaves_out_the_evidence():
    report = index_nullity(155)
    assert len(report.negative_runs) > 100
    assert repr(report) == "IndexReport(k=155, index=89321, nullity=5, f=22176, g=0)"

"""The frozen-record contract of the package's result types and AST nodes:
the repr, construction, equality, hashing, immutability and ``match``
behaviour they had as frozen dataclasses."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import bicomplex
from bicomplex import (
    AbsoluteReport,
    Bicomplex,
    BoundCheck,
    BranchIndex,
    Duplex,
    IdempotentPair,
    LogSumReport,
    NormInfo,
    ProductAnalysis,
    ProductReport,
    SeriesReport,
    SingularityVerdict,
    TrigForm,
)
from bicomplex.core import _Record
from bicomplex.seqspec import Add, Call, Const, Div, Idem, Mul, Neg, Num, Pow, Sub, Var

# one instance of every record type, by its positional fields, and the
# repr a frozen dataclass gave it
RECORDS = [
    (SingularityVerdict, (False, 1.75, 6.25e-12, 0.5),
     "SingularityVerdict(is_singular=False, cn_magnitude=1.75, tolerance_used=6.25e-12,"
     " min_component_modulus=0.5)"),
    (IdempotentPair, (-0.5 + 0j, 3.5 - 0.0j), "IdempotentPair(p1=(-0.5+0j), p2=(3.5+0j))"),
    (Duplex, (1.0, -0.5), "Duplex(x=1.0, y=-0.5)"),
    (NormInfo, (-1.75 + 0j, (-1.75, -0.0), Duplex(6.25, -6.0), 2.5),
     "NormInfo(mod_i1_sq=(-1.75+0j), mod_i2_sq=(-1.75, -0.0),"
     " mod_j_sq=Duplex(x=6.25, y=-6.0), euclid=2.5)"),
    (ProductReport, ("singular_term", Bicomplex(3.5, 0.25j), 20, True, False, None, True, 20),
     "ProductReport(verdict='singular_term', limit_estimate=Bicomplex((3.5+0j), 0.25j),"
     " terms_used=20, necessary_condition_ok=True, absolute=False, log_sum=None,"
     " criteria_agreement=True, singular_index=20)"),
    (LogSumReport, (Bicomplex(3.5), None, 2.5e-16, (1, -1), 2, 20),
     "LogSumReport(product_limit=Bicomplex((3.5+0j), 0j), exp_of_log_sum=None,"
     " max_discrepancy=2.5e-16, branch_offset=(1, -1), branch_offset_changes=2,"
     " terms_used=20)"),
    (AbsoluteReport, ("hypothesis_violated", "hypothesis_violated", True, 7, 7),
     "AbsoluteReport(via_log_norms='hypothesis_violated',"
     " via_deviation_norms='hypothesis_violated', agree=True,"
     " hypothesis_violation_index=7, terms_used=7)"),
    (BoundCheck, (0.25, 0.3, 1.2, True, True),
     "BoundCheck(norm=0.25, log_norm=0.3, ratio=1.2, lower_ok=True, upper_ok=True)"),
    (SeriesReport, ("converged", Bicomplex(1.5, -2j), 30, 1e-11, True,
                    ("converged", "converged"), ("converged", "inconclusive")),
     "SeriesReport(verdict='converged', limit_estimate=Bicomplex((1.5+0j), (-0-2j)),"
     " terms_used=30, tail_delta=1e-11, absolute=True,"
     " component_verdicts=('converged', 'converged'),"
     " absolute_component_verdicts=('converged', 'inconclusive'))"),
    (TrigForm, (1.25j, -1.5 - 0.75j), "TrigForm(r_c=1.25j, theta_c0=(-1.5-0.75j))"),
    (Num, (1.5,), "Num(value=1.5)"),
    (Const, ("pi",), "Const(name='pi')"),
    (Var, (), "Var()"),
    (Neg, (Var(),), "Neg(operand=Var())"),
    (Add, (Var(), Num(2.0)), "Add(left=Var(), right=Num(value=2.0))"),
    (Sub, (Var(), Num(2.0)), "Sub(left=Var(), right=Num(value=2.0))"),
    (Mul, (Const("i2"), Var()), "Mul(left=Const(name='i2'), right=Var())"),
    (Div, (Num(1.0), Var()), "Div(left=Num(value=1.0), right=Var())"),
    (Pow, (Var(), -3), "Pow(base=Var(), exponent=-3)"),
    (Call, ("exp", Neg(Var())), "Call(func='exp', arg=Neg(operand=Var()))"),
    (Idem, (Num(1.0), Var()), "Idem(first=Num(value=1.0), second=Var())"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize(("cls", "args", "text"), RECORDS, ids=IDS)
def test_record_contract(cls, args, text):
    record = cls(*args)
    assert repr(record) == text
    assert cls.__match_args__ == cls._fields
    assert tuple(getattr(record, name) for name in cls._fields) == args

    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert by_keyword == record and hash(by_keyword) == hash(record)
    assert hash(record) == hash(args)
    assert record != args
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, other=None)
    if cls._fields:
        # a missing field, and a field given by position and by keyword
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, **{cls._fields[0]: args[0]})

    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text

    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_every_record_type_is_in_the_contract():
    for module in pkgutil.iter_modules(bicomplex.__path__):
        importlib.import_module(f"bicomplex.{module.name}")
    found, stack = set(), [_Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("bicomplex."):
                found.add(sub)
            stack.append(sub)
    assert found == {cls for cls, _, _ in RECORDS}
    # each takes _Record's constructor, so the cases above cover them all
    assert not [cls for cls in found if "__init__" in vars(cls)]


def _pair_bits(w: Bicomplex) -> tuple[str, ...]:
    return tuple(x.hex() for x in (w.p1.real, w.p1.imag, w.p2.real, w.p2.imag))


def test_bicomplex_copies_and_pickles_bit_for_bit():
    values = [
        Bicomplex(1.5, -2j),
        Bicomplex.from_idempotent(complex(-0.0, 0.0), complex(0.1, -0.0)),
        Bicomplex.from_idempotent(1.7e308, -1.7e308),
        Bicomplex(1e-320, 1j / 3),
    ]
    for w in values:
        for again in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert type(again) is Bicomplex
            assert _pair_bits(again) == _pair_bits(w)
    # a report that holds one pickles too
    report = SeriesReport("converged", values[1], 30, 1e-11, True,
                          ("converged", "converged"), ("converged", "inconclusive"))
    again = pickle.loads(pickle.dumps(report))
    assert again == report
    assert _pair_bits(again.limit_estimate) == _pair_bits(values[1])


def test_equality_needs_the_same_type():
    x, y = Var(), Num(2.0)
    assert Add(x, y) != Sub(x, y)
    assert Add(x, y) == Add(Var(), Num(2.0))
    assert Mul(x, y) != Div(x, y)
    assert len({Add(x, y), Sub(x, y), Add(x, y)}) == 2


def test_positional_match():
    match Div(Num(1.0), Pow(Var(), -2)):
        case Div(Num(value), Pow(Var(), exponent)):
            assert (value, exponent) == (1.0, -2)
        case _:
            pytest.fail("the pattern did not match")
    match Bicomplex(3.0, 4.0).is_singular():
        case SingularityVerdict(False, magnitude, _, _):
            assert magnitude == pytest.approx(25.0)
        case _:
            pytest.fail("the pattern did not match")


def test_named_tuples_stay_tuples():
    assert ProductAnalysis._fields == ("product", "absolute", "identity")
    assert BranchIndex._fields == ("m", "n")
    branch = BranchIndex(1, -2)
    assert isinstance(branch, tuple) and branch == (1, -2)
    assert repr(branch) == "BranchIndex(m=1, n=-2)"
    analysis = ProductAnalysis(None, None, None)
    assert isinstance(analysis, tuple) and tuple(analysis) == (None, None, None)

"""The value types: construction, equality, hashing, repr, immutability, pickling.

Every record class is listed with its field names in order, and each
contract is checked on one sample per class.  The samples come from the
library's own functions where one builds that record.
"""

import copy
import pickle

import pytest

from ordersum.analysis import (
    CollisionRecord,
    DivisibleRecord,
    ImageReport,
    MonotonicityReport,
    SweepCheckpoint,
    SweepOutcome,
    divisibility_search,
    image_probe,
    monotonicity_check,
)
from ordersum.partitions import Partition
from ordersum.polynomial import (
    ClosedFormCheck,
    ClosedFormReport,
    IntPoly,
    verify_closed_form,
)
from ordersum.psi_core import AbelianGroupType, PGroupType, parse_group_spec
from support import run_python

FIELDS = {
    Partition: ("parts",),
    PGroupType: ("p", "shape"),
    AbelianGroupType: ("components",),
    CollisionRecord: ("order", "group_a", "group_b", "psi"),
    DivisibleRecord: ("order", "group", "psi", "quotient"),
    ImageReport: ("max_order", "types_scanned", "values_up_to_3", "conclusive",
                  "explanation"),
    MonotonicityReport: ("n", "p", "types", "violations",
                         "first_matches_flat_formula",
                         "last_matches_cyclic_formula"),
    ClosedFormCheck: ("family", "closed", "residual"),
    ClosedFormReport: ("shape", "direct", "checks"),
    SweepCheckpoint: ("max_done", "collisions", "divisible_hits", "version"),
    SweepOutcome: ("types_scanned", "collisions", "divisible_hits"),
}
MUTABLE = (SweepCheckpoint, SweepOutcome)
FROZEN = tuple(cls for cls in FIELDS if cls not in MUTABLE)
# IntPoly is a FrozenRecord with its own normalising __init__ and its own
# IntPoly((...)) repr; it joins every contract below that it shares.
VALUES = {**FIELDS, IntPoly: ("coeffs",)}
FROZEN_VALUES = FROZEN + (IntPoly,)


def _samples() -> dict:
    hit = divisibility_search(4000)[0]
    collision = CollisionRecord(order=64, group_a="2^[1,1,4]",
                                group_b="2^[2,2,2]", psi=1407)
    report = verify_closed_form(Partition((1, 2)))
    return {
        Partition: Partition((1, 1, 3)),
        IntPoly: report.direct,
        PGroupType: parse_group_spec("13^[1,1]*23").components[0],
        AbelianGroupType: parse_group_spec("13^[1,1]*23"),
        CollisionRecord: collision,
        DivisibleRecord: hit,
        ImageReport: image_probe(6),
        MonotonicityReport: monotonicity_check(4, 2),
        ClosedFormCheck: report.checks[0],
        ClosedFormReport: report,
        SweepCheckpoint: SweepCheckpoint(max_done=4000, collisions=[collision],
                                         divisible_hits=[hit]),
        SweepOutcome: SweepOutcome(types_scanned=9, collisions=[collision],
                                   divisible_hits=[hit]),
    }


SAMPLES = _samples()
# A second record of each class, differing from the sample in some field.
OTHERS = {
    Partition: Partition((1, 4)),
    IntPoly: verify_closed_form(Partition((2, 2))).direct,
    PGroupType: parse_group_spec("13^[1,1]*23").components[1],
    AbelianGroupType: parse_group_spec("13^[1,2]*23"),
    CollisionRecord: CollisionRecord(64, "2^[1,1,4]", "2^[2,2,2]", 1409),
    DivisibleRecord: DivisibleRecord(3887, "13^[1,1]*23", 1107795, 286),
    ImageReport: image_probe(4),
    MonotonicityReport: monotonicity_check(4, 3),
    ClosedFormCheck: SAMPLES[ClosedFormReport].checks[1],
    ClosedFormReport: verify_closed_form(Partition((2, 2))),
    SweepCheckpoint: SweepCheckpoint(max_done=4000, collisions=[]),
    SweepOutcome: SweepOutcome(types_scanned=9),
}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in VALUES[type(record)])


def _rebuilt(record):
    """An equal record built from copies of the sample's field values."""
    return type(record)(*copy.deepcopy(_values(record)))


def _ids(classes):
    return [cls.__name__ for cls in classes]


@pytest.mark.parametrize("cls", VALUES, ids=_ids(VALUES))
def test_records_survive_pickle_and_deepcopy(cls):
    # Sweep workers send their results back pickled; a record that fails
    # to pickle or unpickle there stops the sweep with an error far from
    # its cause (a WorkerError, or the unpickler's), so this is the check
    # that names the record.
    record = SAMPLES[cls]
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  copy.copy(record)):
        assert type(clone) is cls
        assert clone == record
        assert _values(clone) == _values(record)


@pytest.mark.parametrize("cls", VALUES, ids=_ids(VALUES))
def test_records_compare_by_field(cls):
    record = SAMPLES[cls]
    clone = _rebuilt(record)
    assert clone is not record
    assert clone == record and not clone != record
    assert record != _values(record)
    assert record != None  # noqa: E711
    assert OTHERS[cls] != record and not OTHERS[cls] == record


def test_records_of_different_classes_are_never_equal():
    # Equal field values, different classes.
    collision = CollisionRecord(10, "2^[1]*5", "10", 15)
    hit = DivisibleRecord(10, "2^[1]*5", "10", 15)
    assert _values(collision) == _values(hit)
    assert collision != hit and hit != collision

    class Narrower(DivisibleRecord):
        pass

    assert Narrower(*_values(hit)) != hit
    assert hit != Narrower(*_values(hit))


@pytest.mark.parametrize("cls", FROZEN_VALUES, ids=_ids(FROZEN_VALUES))
def test_equal_records_hash_equal(cls):
    record = SAMPLES[cls]
    clone = _rebuilt(record)
    assert hash(clone) == hash(record)
    assert len({record, clone}) == 1
    assert {record: 1}[clone] == 1


@pytest.mark.parametrize("cls", MUTABLE, ids=_ids(MUTABLE))
def test_sweep_state_is_unhashable(cls):
    with pytest.raises(TypeError):
        hash(SAMPLES[cls])


@pytest.mark.parametrize("cls", FIELDS, ids=_ids(FIELDS))
def test_repr_lists_every_field(cls):
    record = SAMPLES[cls]
    fields = ", ".join(f"{name}={getattr(record, name)!r}"
                       for name in FIELDS[cls])
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_repr_examples():
    assert repr(divisibility_search(4000)[0]) == (
        "DivisibleRecord(order=3887, group='13^[1,1]*23', psi=1107795, "
        "quotient=285)")
    assert repr(parse_group_spec("13^[1,1]*23")) == (
        "AbelianGroupType(components=(PGroupType(p=13, shape=Partition("
        "parts=(1, 1))), PGroupType(p=23, shape=Partition(parts=(1,)))))")
    assert repr(monotonicity_check(2, 2)) == (
        "MonotonicityReport(n=2, p=2, types=2, violations=(), "
        "first_matches_flat_formula=True, last_matches_cyclic_formula=True)")
    assert repr(verify_closed_form(Partition((2,))).checks[0]) == (
        "ClosedFormCheck(family='corollary2a', "
        "closed=IntPoly((1, -1, 1, -1, 1)), residual=IntPoly(()))")
    assert repr(SweepCheckpoint.fresh(1)) == (
        "SweepCheckpoint(max_done=0, collisions=[], divisible_hits=[], "
        "version=1)")
    assert repr(SweepOutcome()) == (
        "SweepOutcome(types_scanned=0, collisions=[], divisible_hits=[])")


@pytest.mark.parametrize("cls", FROZEN_VALUES, ids=_ids(FROZEN_VALUES))
def test_frozen_fields_cannot_be_assigned_or_deleted(cls):
    record = SAMPLES[cls]
    before = _values(record)
    for name in VALUES[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == before


@pytest.mark.parametrize("cls", VALUES, ids=_ids(VALUES))
def test_keyword_and_positional_construction_agree(cls):
    record = SAMPLES[cls]
    by_name = cls(**dict(zip(VALUES[cls], _values(record))))
    assert by_name == cls(*_values(record)) == record
    with pytest.raises(TypeError):
        cls(*_values(record), 0)
    with pytest.raises(TypeError):
        cls(*_values(record), **{VALUES[cls][0]: _values(record)[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(VALUES[cls], _values(record))), not_a_field=0)


@pytest.mark.parametrize("cls", FROZEN_VALUES, ids=_ids(FROZEN_VALUES))
def test_trusted_construction_equals_the_validated_one(cls):
    # FrozenRecord._unchecked skips __init__ and _check; on values the
    # checks accept it must build the very record the constructor builds.
    values = _values(SAMPLES[cls])
    trusted, validated = cls._unchecked(*values), cls(*values)
    assert type(trusted) is cls
    assert trusted == validated and validated == trusted
    assert hash(trusted) == hash(validated)
    assert repr(trusted) == repr(validated)
    assert pickle.loads(pickle.dumps(trusted)) == validated


def test_frozen_records_need_every_field():
    for cls in FROZEN:
        with pytest.raises(TypeError):
            cls(*_values(SAMPLES[cls])[:-1])


def test_sweep_state_defaults():
    a, b = SweepOutcome(), SweepOutcome()
    assert a == b and a.collisions is not b.collisions
    a.types_scanned += 1
    a.divisible_hits.append(5)
    assert b == SweepOutcome()
    assert SweepCheckpoint(max_done=3).collisions is not SweepCheckpoint(3).collisions
    assert SweepCheckpoint(3) == SweepCheckpoint(max_done=3, version=1)
    with pytest.raises(TypeError):
        SweepCheckpoint()


def test_validation_runs_on_keyword_construction():
    with pytest.raises(ValueError):
        Partition(parts=())
    with pytest.raises(ValueError):
        Partition(parts=(2, 1))
    with pytest.raises(ValueError):
        PGroupType(p=4, shape=Partition((1,)))
    a, b = parse_group_spec("13^[1,1]*23").components
    with pytest.raises(ValueError):
        AbelianGroupType(components=(b, a))


def test_partition_parts_may_be_int_subclasses():
    class Exponent(int):
        pass

    assert Partition((Exponent(1), 2)) == Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, True))
    with pytest.raises(ValueError):
        Partition((1, 2.0))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # Each costs milliseconds at every command-line start.  Both
    # interpreters run without the site module (-S), so no site hook
    # loads a module first; a module the bare one still loads could hide
    # an import, so that case is checked for before the assertion.
    show = "import sys; print(' '.join(sorted(sys.modules)))"
    watched = {"dataclasses", "inspect", "typing"}
    bare = set(run_python(show, "-S").stdout.split())
    cli = run_python("import ordersum.cli; " + show, "-S")
    assert cli.returncode == 0, cli.stderr
    if watched & bare:
        pytest.skip(f"the bare interpreter loads {sorted(watched & bare)}")
    assert "ordersum.cli" in cli.stdout.split()
    assert not watched & set(cli.stdout.split())

"""The immutable records: no field can be assigned after construction, and
records compare and hash by value, so equal parts built apart share one
dict entry."""
import pytest

from koszulab.algebra import (Bimodule, builtin_height1, identity_tensor,
                              tensor_over_coeff)
from koszulab.bar import KoszulData
from koszulab.isogeny import build_mic
from koszulab.padic import BaseRing, PAdicMatrix, smith_normal_form
from koszulab.partition import partition_complex


@pytest.fixture(scope="module")
def built():
    ds = builtin_height1(3, 2, 3)
    return ds, KoszulData(ds.algebra)


# record class name -> the record, from (dataset, its KoszulData)
RECORDS = {
    "CoefficientAlgebra": lambda ds, data: ds.algebra.coeff,
    "Bimodule": lambda ds, data: ds.algebra.components[1],
    "TensorData": lambda ds, data: tensor_over_coeff(ds.algebra.components[1],
                                                     ds.algebra.components[2]),
    "IteratedTensor": lambda ds, data: identity_tensor(ds.algebra.components[1]),
    "GradedAugmentedAlgebra": lambda ds, data: ds.algebra,
    "LeftModule": lambda ds, data: ds.module("sphere"),
    "Block": lambda ds, data: data.bar(2).degree_blocks(1)[0],
    "BarComplex": lambda ds, data: data.bar(2),
    "KoszulModuleData": lambda ds, data: data.koszul_module(2),
    "KoszulComplexData": lambda ds, data: data.koszul_complex(ds.module("sphere")),
    "HomologyProfile": lambda ds, data: data.bar_homology(2),
    "SubgroupAlgebra": lambda ds, data: ds.subgroup_package.orders[1],
    "ModularIsogenyComplex": lambda ds, data: build_mic(ds.subgroup_package, 2),
    "SmithDecomposition": lambda ds, data: smith_normal_form(
        PAdicMatrix(ds.ring, [[3, 1], [0, 3]], 2, 2)),
    "PartitionComplexData": lambda ds, data: partition_complex(3, ds.ring),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name, built):
    record = RECORDS[name](*built)
    assert type(record).__name__ == name
    for field in type(record).__annotations__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before


def test_bimodules_built_apart_from_equal_matrices_are_one_key():
    ring = BaseRing(3, 2)
    coeff = builtin_height1(3, 2, 1).algebra.coeff

    def bimodule():
        act = PAdicMatrix(ring, [[1, 0], [0, 1]], 2, 2)
        return Bimodule(ring, coeff, 2, (act,), (act,))

    a, b = bimodule(), bimodule()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: "first", b: "second"}) == 1

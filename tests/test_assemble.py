"""`bar.assemble` against the definition of a composition complex's
differential: the block from source composition c to target composition c'
is the sum over the faces of c landing in c' of sign * proj_full(c') @
(I_pre (x) m (x) I_post) @ sect_full(c), placed at the two blocks' offsets.
Every differential of the bar, module-bar and subgroup complexes over a
rank-2 coefficient algebra and over Sym(V), rank V = 2, is compared; the
module-bar faces are written out here."""
from math import prod

import pytest

from koszulab import bar, isogeny
from koszulab.algebra import (Bimodule, Dataset, GradedAugmentedAlgebra,
                              LeftModule, trivial_module)
from koszulab.bar import KoszulData, bar_complex_with_module, place_blocks
from koszulab.isogeny import SubgroupAlgebra, SubgroupAlgebraPackage, build_mic
from koszulab.padic import PAdicMatrix

from test_algebra import dual_numbers
from test_golden import sym2_dataset

KMAX = 4


def dual_number_dataset():
    """The built-in height-1 algebra base-changed to the dual numbers
    E0 = (Z/4)[eps]/eps^2: weight k is E0 with its regular actions and every
    product is the multiplication mu of E0; the module "regular" is E0 with
    every weight acting by mu; the subgroup package takes S_{p^k} = E0 with
    u1 the map x -> x (x) 1."""
    coeff = dual_numbers()
    ring = coeff.ring
    r = coeff.rank
    E = coeff.as_bimodule()
    mu = PAdicMatrix(ring, [[coeff.mult_constants[i][j][k]
                             for i in range(r) for j in range(r)]
                            for k in range(r)], r, r * r)
    x_tensor_one = PAdicMatrix(ring, [[int(i == a and j == 0) for a in range(r)]
                                      for i in range(r) for j in range(r)],
                               r * r, r)
    eye = PAdicMatrix.identity(ring, r)
    weights = range(1, KMAX + 1)
    comps = {k: Bimodule(ring, coeff, r, E.left, E.right) for k in weights}
    mult = {(k, l): mu for k in range(1, KMAX) for l in range(1, KMAX + 1 - k)}
    algebra = GradedAugmentedAlgebra(coeff, 1, KMAX, comps, mult)
    modules = {"triv": trivial_module(coeff),
               "regular": LeftModule("regular", coeff, 1, {k: mu for k in weights})}
    pkg = SubgroupAlgebraPackage(
        coeff=coeff,
        orders={k: SubgroupAlgebra(k, coeff, comps[k]) for k in weights},
        t_maps={k: eye for k in weights},
        u1={kl: x_tensor_one for kl in mult},
        shift={},
        pairing={k: eye for k in weights})
    return Dataset(2, 2, "1", 1, "built-in height-1 over the dual numbers",
                   algebra, modules, pkg)


def reference_assemble(ring, src, tgt, rows, cols, faces):
    """Each face's block formed on its own and summed by `place_blocks`."""
    by_comp = {b.composition: b for b in tgt}
    placed = []
    for b in src:
        ranks = b.tensor.factor_ranks
        for comp, sign, lo, hi, m in faces(b.composition):
            tb = by_comp[comp]
            block = tb.tensor.proj_full @ m.kron_apply(
                prod(ranks[:lo]), prod(ranks[hi:]), b.tensor.sect_full)
            placed.append((tb.start, b.start, sign, block))
    return place_blocks(ring, rows, cols, placed)


@pytest.fixture
def compared(monkeypatch):
    """Route every `assemble` call through a comparison with the
    reference; the list collects each differential compared."""
    seen = []
    original = bar.assemble

    def checked(ring, src, tgt, rows, cols, faces):
        got = original(ring, src, tgt, rows, cols, faces)
        assert got == reference_assemble(ring, src, tgt, rows, cols, faces)
        seen.append(got)
        return got

    monkeypatch.setattr(bar, "assemble", checked)
    monkeypatch.setattr(isogeny, "assemble", checked)
    return seen


def module_bar_faces(A, M):
    """The faces of the bar complex with coefficients in M: multiply two
    neighbouring slots, or act the last slot on M."""
    def faces(comp):
        for i in range(1, len(comp)):
            yield (comp[:i - 1] + (comp[i - 1] + comp[i],) + comp[i + 1:],
                   (-1) ** i, i - 1, i + 1, A.mult[(comp[i - 1], comp[i])])
        s = len(comp)
        yield (comp[:-1], (-1) ** s, s - 1, s + 1,
               M.weight_action(comp[-1], A.rank(comp[-1])))
    return faces


@pytest.mark.parametrize("factory", [dual_number_dataset, sym2_dataset])
def test_assemble_equals_the_per_face_definition(factory, compared):
    ds = factory()
    assert ds.validate().passed
    A, pkg = ds.algebra, ds.subgroup_package
    data = KoszulData(A)
    for k in range(1, KMAX + 1):
        data.bar(k)
        build_mic(pkg, k)
    # weight k has k bar differentials and k - 1 subgroup ones
    assert len(compared) == KMAX * KMAX
    # a module bar complex adds its action face to merge faces shared by
    # every module of its rank, so its differentials, not the assembly
    # calls, are compared: KMAX per module
    for M in ds.modules.values():
        bc = bar_complex_with_module(data, M, KMAX)
        for s, d in enumerate(bc.complex.differentials, 1):
            assert d == reference_assemble(A.coeff.ring, bc.blocks[s], bc.blocks[s - 1],
                                           d.rows, d.cols, module_bar_faces(A, M))
            compared.append(d)
    assert len(compared) == KMAX * KMAX + KMAX * len(ds.modules)
    assert any(not d.is_zero() for d in compared)

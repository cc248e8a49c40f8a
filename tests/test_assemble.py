"""The composition-complex builders against the definition of a
differential: the block from source composition c to target composition c'
is the sum over the faces of c landing in c' of sign * proj_full(c') @
(I_pre (x) m (x) I_post) @ sect_full(c), placed at the two blocks' offsets.
The builders assemble each weight, bound or order from the lower ones by
recursion on the first part; this reference forms every face on its own,
from tensors folded afresh (`iterated_tensor`, `flag_tensor`).  Every
differential of every bar complex, of every module's bar complex and of
every subgroup complex is compared, over a rank-2 coefficient algebra (the
dual numbers), over Sym(V) with rank V = 2, and on the built-in p=3 N=2
dataset at kmax 6."""
from math import prod

import pytest

from koszulab.algebra import (Bimodule, Dataset, GradedAugmentedAlgebra,
                              LeftModule, builtin_height1, identity_tensor,
                              iterated_tensor, tensor_step, trivial_module)
from koszulab.bar import KoszulData, bar_complex_with_module
from koszulab.isogeny import (SubgroupAlgebra, SubgroupAlgebraPackage,
                              build_mic, flag_tensor)
from koszulab.padic import PAdicMatrix

from complex_helpers import bounded_compositions, compositions, place_blocks
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


def builtin_p3_N2_k6():
    return builtin_height1(3, 2, 6)


def reference_differential(ring, src, tgt, faces):
    """Each face's block formed on its own and summed by `place_blocks`.
    ``src`` and ``tgt`` are (composition, start, tensor) per block, and
    ``faces(c)`` yields (target composition, sign, lo, hi, m): the map
    I_pre (x) m (x) I_post with m on the source's factors lo..hi-1."""
    by_comp = {c: (start, T) for c, start, T in tgt}
    placed = []
    for c, start, T in src:
        ranks = T.factor_ranks
        for comp, sign, lo, hi, m in faces(c):
            t_start, t_tensor = by_comp[comp]
            block = t_tensor.proj_full @ m.kron_apply(
                prod(ranks[:lo]), prod(ranks[hi:]), T.sect_full)
            placed.append((t_start, start, sign, block))
    rows = sum(T.bimodule.rank for _, _, T in tgt)
    cols = sum(T.bimodule.rank for _, _, T in src)
    return place_blocks(ring, rows, cols, placed)


def laid_out(comps, tensor_of):
    """(composition, start, tensor) per composition, laid end to end."""
    out, start = [], 0
    for c in comps:
        T = tensor_of(c)
        out.append((c, start, T))
        start += T.bimodule.rank
    return out


def merge_faces(A):
    def faces(comp):
        for i in range(1, len(comp)):
            yield (comp[:i - 1] + (comp[i - 1] + comp[i],) + comp[i + 1:],
                   (-1) ** i, i - 1, i + 1, A.mult[(comp[i - 1], comp[i])])
    return faces


def module_bar_faces(A, M):
    """Multiply two neighbouring slots, or act the last slot on M."""
    merges = merge_faces(A)

    def faces(comp):
        yield from merges(comp)
        s = len(comp)
        yield (comp[:-1], (-1) ** s, s - 1, s + 1,
               M.weight_action(comp[-1], A.rank(comp[-1])))
    return faces


def split_faces(pkg):
    def faces(comp):
        for i, ki in enumerate(comp):
            for k1 in range(1, ki):
                yield (comp[:i] + (k1, ki - k1) + comp[i + 1:], (-1) ** (i + 1),
                       i, i + 1, pkg.u1[(k1, ki - k1)])
    return faces


def assert_blocks(blocks, layout):
    assert [(b.composition, b.start, b.rank) for b in blocks] == \
        [(c, start, T.bimodule.rank) for c, start, T in layout]


@pytest.mark.parametrize("factory", [dual_number_dataset, sym2_dataset,
                                     builtin_p3_N2_k6])
def test_assemble_equals_the_per_face_definition(factory):
    ds = factory()
    assert ds.validate().passed
    A, pkg = ds.algebra, ds.subgroup_package
    ring, kmax = A.coeff.ring, A.max_weight
    data = KoszulData(A)
    compared = []

    def weight_tensor(c):
        return (iterated_tensor([A.component(x) for x in c]) if c
                else identity_tensor(A.coeff.as_bimodule()))

    for k in range(kmax + 1):
        bc = data.bar(k)
        layout = [laid_out(compositions(k, s), weight_tensor) for s in range(k + 1)]
        for s in range(k + 1):
            assert_blocks(bc.degree_blocks(s), layout[s])
        for s, d in enumerate(bc.complex.differentials, 1):
            assert d == reference_differential(ring, layout[s], layout[s - 1],
                                               merge_faces(A))
            compared.append(d)
    for M in ds.modules.values():
        Mb = M.as_bimodule()

        def module_tensor(c):
            return tensor_step(weight_tensor(c), Mb) if c else identity_tensor(Mb)
        bc = bar_complex_with_module(data, M, kmax)
        layout = [laid_out(bounded_compositions(s, kmax), module_tensor)
                  for s in range(kmax + 1)]
        for s in range(kmax + 1):
            assert_blocks(bc.degree_blocks(s), layout[s])
        for s, d in enumerate(bc.complex.differentials, 1):
            assert d == reference_differential(ring, layout[s], layout[s - 1],
                                               module_bar_faces(A, M))
            compared.append(d)
    for k in range(pkg.max_order + 1):
        mic = build_mic(pkg, k)
        low = 1 if k else 0
        layout = [laid_out(compositions(k, s), lambda c: flag_tensor(pkg, c))
                  for s in range(low, k + 1)]
        for blocks, lay in zip(mic.blocks, layout):
            assert_blocks(blocks, lay)
        for j, d in enumerate(mic.complex.differentials):
            assert d == reference_differential(ring, layout[j], layout[j + 1],
                                               split_faces(pkg))
            compared.append(d)
    # weight k has k bar differentials and order k has k - 1 subgroup
    # ones; each module's bar complex has kmax
    orders = pkg.max_order
    assert len(compared) == (kmax * (kmax + 1) // 2 + kmax * len(ds.modules)
                             + orders * (orders - 1) // 2)
    assert any(not d.is_zero() for d in compared)

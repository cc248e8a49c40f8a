"""Seeded synthetic datasets: rank-1 weight components with unit structure
constants built from a multiplicative coboundary, together with a matching
subgroup-algebra package whose refinement and pairing scalars are chosen so
that every structural identity holds on the nose.  With f = g = 1 it is the
built-in height-1 dataset (``algebra.builtin_height1``).

Given random units f(k) (with f(0) = 1) and g(k), the structure constants are
c(k, l) = f(k+l) / (f(k) f(l)) — automatically a symmetric 2-cocycle — the
pairings are g(k), the refinement scalars are
u1(k1, k2) = c(k1, k2) g(k1+k2) / (g(k1) g(k2)), and the rank-one module acts
in weight k by (g(1) f(1))^k / f(k).  The t and shift maps are forced to be 1
in rank one.
"""
from __future__ import annotations

import random

from .padic import BaseRing, PAdicMatrix
from .algebra import (Bimodule, CoefficientAlgebra, Dataset,
                      GradedAugmentedAlgebra, LeftModule, trivial_module)
from .isogeny import SubgroupAlgebra, SubgroupAlgebraPackage


def random_unit(rng: random.Random, ring: BaseRing) -> int:
    while True:
        x = rng.randrange(1, ring.modulus)
        if ring.is_unit(x):
            return x


def synthetic_height1_dataset(p: int, N: int, kmax: int, seed: int) -> Dataset:
    """Rank-1 dataset with coboundary structure constants and a consistent
    subgroup-algebra package; deterministic in the seed."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    rng = random.Random(("koszulab-synthetic", p, N, kmax, seed).__repr__())
    ring = BaseRing(p, N)
    f = {0: 1}
    g = {}
    for k in range(1, kmax + 1):
        f[k] = random_unit(rng, ring)
        g[k] = random_unit(rng, ring)
    return _height1_dataset(ring, f, g,
                            f"synthetic rank-1 coboundary dataset (seed={seed})")


def _height1_dataset(ring: BaseRing, f: dict, g: dict, provenance: str) -> Dataset:
    """The rank-1 dataset of the units f(k), k = 0..kmax with f(0) = 1, and
    g(k), k = 1..kmax, with its subgroup-algebra package (see the module
    docstring)."""
    p, mod, kmax = ring.p, ring.modulus, max(f)

    def c(k, l):
        return f[k + l] * ring.inv(f[k] * f[l]) % mod

    def scalar(x):
        return PAdicMatrix(ring, [[x]], 1, 1)

    coeff = CoefficientAlgebra(ring, 1, (((1,),),), (1,), ((p % mod,),))
    one = scalar(1)
    comps = {k: Bimodule(ring, coeff, 1, (one,), (one,))
             for k in range(1, kmax + 1)}
    pairs = [(k, l) for k in range(1, kmax) for l in range(1, kmax + 1 - k)]
    algebra = GradedAugmentedAlgebra(coeff, 1, kmax, comps,
                                     {kl: scalar(c(*kl)) for kl in pairs})

    beta = g[1] * f[1] % mod
    sphere = LeftModule(
        "sphere", coeff, 1,
        {k: scalar(pow(beta, k, mod) * ring.inv(f[k]) % mod)
         for k in range(1, kmax + 1)})
    modules = {"triv": trivial_module(coeff), "sphere": sphere}

    scalar_alg = CoefficientAlgebra(ring, 1, (((1,),),), (1,), ())
    pkg = SubgroupAlgebraPackage(
        coeff=coeff,
        orders={k: SubgroupAlgebra(k, scalar_alg, comps[k])
                for k in range(1, kmax + 1)},
        t_maps={k: one for k in range(1, kmax + 1)},
        u1={(k1, k2): scalar(c(k1, k2) * g[k1 + k2] * ring.inv(g[k1] * g[k2]) % mod)
            for k1, k2 in pairs},
        shift={k: one for k in range(1, kmax + 1)},
        pairing={k: scalar(g[k]) for k in range(1, kmax + 1)},
    )
    return Dataset(p, ring.N, "1", 1, provenance, algebra, modules, pkg)


def perturb_pairing(ds: Dataset, seed: int) -> Dataset:
    """Copy of the dataset with one pairing scalar multiplied by a unit != 1.

    Every complex stays a complex, but the bar-dual comparison with the
    subgroup package must now fail (for kmax >= 2).
    """
    pkg = ds.subgroup_package
    if pkg is None:
        raise ValueError("dataset has no subgroup package")
    rng = random.Random(("koszulab-perturb", seed).__repr__())
    ring = ds.algebra.coeff.ring
    if ring.modulus <= 2:
        raise ValueError("no unit other than 1 mod 2; use p^N > 2")
    ks = sorted(pkg.pairing)
    k = ks[rng.randrange(len(ks))]
    while True:
        u = random_unit(rng, ring)
        if u != 1:
            break
    old = pkg.pairing[k]
    new_pairing = dict(pkg.pairing)
    new_pairing[k] = old.scale(u)
    new_pkg = SubgroupAlgebraPackage(pkg.coeff, pkg.orders, pkg.t_maps,
                                     pkg.u1, pkg.shift, new_pairing)
    out = Dataset(ds.p, ds.N, ds.height_label, ds.q_label,
                  ds.provenance + f" [pairing perturbed at weight {k}]",
                  ds.algebra, ds.modules, new_pkg)
    return out

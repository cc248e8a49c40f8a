"""koszulab: exact weight-graded homological algebra over Z/p^N.

Bar and Koszul complexes for a structure-constant graded algebra, the
subgroup-algebra (modular isogeny) complex with its bar duality, the pointed
partition complex, and exact Smith-normal-form linear algebra over truncated
p-adic rings.
"""

from .padic import (BaseRing, PAdicMatrix, SmithDecomposition,
                    ExactLinalgError, ShapeError, InconsistentSystemError,
                    smith_normal_form, kernel_basis, inverse_mod, solve)
from .complexes import (ChainComplex, HomologyProfile, ComplexError,
                        make_complex, verify_complex, homology,
                        dualize_complex)
from .algebra import (CoefficientAlgebra, Bimodule, GradedAugmentedAlgebra,
                      LeftModule, Dataset, DatasetError, NonFreeQuotientError,
                      tensor_over_coeff, iterated_tensor, TensorTable,
                      trivial_module,
                      validate_algebra, validate_module, builtin_height1,
                      dataset_to_json, dataset_from_json, canonical_json,
                      save_dataset, load_dataset)
from .bar import (BarComplex, KoszulData, KoszulModuleData, KoszulComplexData,
                  NotKoszulError, bar_complex, bar_complex_with_module,
                  koszul_module, koszul_complex, ext_groups,
                  tor_groups_via_bar, verify_koszulness)
from .isogeny import (SubgroupAlgebra, SubgroupAlgebraPackage, MICError,
                      build_mic, mic_cohomology, dualize_bar_to_mic,
                      verify_theorem_10_2, validate_package)
from .partition import (PartitionSizeError, partition_complex,
                        partition_homology)
from .synthetic import synthetic_height1_dataset, perturb_pairing

__version__ = "0.1.0"

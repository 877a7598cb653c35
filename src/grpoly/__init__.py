"""Exact-arithmetic workbench for graph polynomials and their roots."""

from .graphs import (Graph, SimilarityTriple, build_graph_with_parameters,
                     canonical_form, complement, disjoint_union,
                     enumerate_graphs, graph, graph_from_graph6,
                     graph_to_graph6, named_graph, similarity_triple,
                     tree_from_prufer, tree_shapes_by_prufer)
from .polynomials import (IntPoly, MultiPoly, RatPoly, convert_basis,
                          evaluate, from_roots, poly, reverse_coefficients,
                          substitute)
from .catalog import (char_poly, chromatic_poly, family_polynomial,
                      matching_counts, matching_poly, spanning_tree_count,
                      subset_counting_poly, tutte_poly)
from .roots import (complex_roots, integer_roots, is_real_rooted,
                    root_report, rouche_bound, sign_profile, sturm_count)
from .simfun import (ReductionSpec, eval_simexpr, parse_simexpr,
                     verify_prefactor_reduction)
from .transforms import (dense_real_prefactor, densify, density_witness,
                         interleave_nonneg, negate_variable,
                         permute_coefficients, quadrant_prefactor, realify,
                         recover_coefficients, remap_roots, rouche_scale,
                         scale_for_graph, square_variable)
from .equivalence import (dp_compare, dp_transfer, find_collisions,
                          similarity_classes, value_partition)

__version__ = "0.1.0"

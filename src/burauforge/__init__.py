"""Exact verification toolkit for the 3-strand Burau representation at
roots of unity and the parameter calculus of the associated projective
quantum representations."""

from .cyclotomic import (CyclotomicNumber, root_of_unity, multiplicative_order,
                         galois_conjugates, euler_phi, cyclotomic_polynomial)
from .balls import ComplexBall, embed, PrecisionExhausted
from .words import (GroupWord, free_group, free_product, braid_group, word,
                    generator, commutator, iterated_bracket, st_words,
                    parse_word, format_word)
from .burau import (CycloMatrix, burau_generator, burau_eval, squared_images,
                    projective_order)
from .triangle import (TriangleClassification, classify, primitive_roots,
                       verify_even, verify_odd, verify_odd_embedding,
                       verify_kernel_words, galois_orbit, euler_characteristics,
                       surface_free_bound, verify_commutator_relator)
from .modular import (ModMatrix2, psi_generators, ab_images, verify_st_kernel,
                      verify_presentation, psl_order, psl_order_bruteforce)
from .quantum import QuantumParams, build_params, twist_projective_order, gamma_at_p
from .artin import (FreeAutomorphism, artin_action, longitude, MagnusSeries,
                    magnus_expansion, magnus_depth, eta_embed, F3, F6)
from .hyperbolic import (HermitianForm2, invariant_form, short_relation_oracle,
                         PingPongConfig, PingPongCertificate, ping_pong_certify,
                         verify_certificate)

__version__ = "0.1.0"

"""Exact computational algebra for semi-cosimplicial objects: coface
identities, partial shifts, braid-monoid actions, cohomology, the
Temperley-Lieb algebra with its Markov trace, and moment-level spreadability.

All arithmetic is over the Gaussian rationals; every verification is an exact
equality check, reported with the mode (exhaustive or sampled) and a first
counterexample on failure.
"""

from __future__ import annotations

from .braid import (
    BraidAction,
    BraidWord,
    braid_sco_build,
    coface_word,
    diagram_identity_check,
    flip_action,
    lemma_power_check,
    level_of,
    shift_word_report,
    verified_braid_sco,
    verify_braid_relations,
    ybe_action,
    ybe_check,
)
from .cohomology import (
    CochainComplex,
    ModuleSco,
    cochain_complex,
    cohomology_dim,
    cohomology_table,
    h1_explicit,
    module_sco,
    verify_dd_zero,
)
from .linalg import Matrix, rank, rank_kernel
from .ncprob import (
    Distribution,
    Factor,
    ProbabilitySco,
    free_coface,
    sequence_distribution,
    spreadability_check,
    star_spreadability_mode,
    subsequence_witness,
    table_distribution,
    tensor_model,
    tensor_sco,
)
from .reports import CheckReport, VerificationError, Witness
from .scalars import ONE, ZERO, I, QQi, scalar
from .simplicial import (
    Colim,
    Level,
    PartialShiftSystem,
    Sco,
    nat_partial_shift,
    prop_partial_check,
    sco_from_shifts,
    sco_verify,
    shifts_from_sco,
    verify_partial_shifts,
)
from .tl import (
    TlDiagram,
    TlElement,
    TlParams,
    e_element,
    g_element,
    g_inverse,
    markov_trace,
    spreadable_projection,
    tl_conjugation_action,
    tl_distribution,
    tl_one,
    tl_probability_sco,
    trace_of_product,
    trace_scalar,
)

__version__ = "1.0.0"

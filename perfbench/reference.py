"""Hand-written expected results for every operation the benchmark runs.

Nothing here is computed by posr. The claim verdicts restate the registry's
documented outcomes, the search verdicts restate the paper's theorems, and
the automorphism-group orders are closed forms.
"""

from __future__ import annotations

from math import factorial

# `posr verify --tier extended`: verdict per claim name.  The five Fail
# entries are published claims that the exhaustive search refutes with a
# counterexample; they are correct verdicts, not benchmark failures.
VERIFY_EXIT_CODE = 1
REFUTED = (
    "trivial-m6-pdr-none",
    "trivial-m8-posr-none",
    "c4_semidirect_c4-m2-posr-none",
    "smallgroup163-m2-posr-none",
    "smallgroup322-m2-posr-none",
)
_PASSING = (
    "cyclic7-m2-posr", "cyclic8-m2-posr", "cyclic4-m3-posr", "cyclic3-m4-posr",
    "cyclic3-m5-posr", "cyclic3-m8-posr", "dihedral8-m2-posr", "dihedral10-m2-posr",
    "elem_abelian_9-m2-posr", "alternating4-m2-posr", "heisenberg27-m2-posr",
    "quaternion8-m3-posr", "smallgroup163-m4-posr", "dihedral8-m6-posr",
    "dihedral6-m2-pdr", "quaternion8-m2-pdr", "c4_semidirect_c4-m2-pdr",
    "smallgroup163-m2-pdr", "smallgroup322-m2-pdr",
    "fig1_9-rigid", "fig1_10-rigid", "gamma7-rigid", "gamma8-rigid",
    "cyclic2-m2-posr-none", "cyclic3-m2-posr-none", "cyclic4-m2-posr-none",
    "cyclic5-m2-posr-none", "cyclic6-m2-posr-none", "cyclic3-m3-posr-none",
    "cyclic2-m3-posr-none", "cyclic2-m4-posr-none", "klein4-m2-posr-none",
    "dihedral6-m2-posr-none", "quaternion8-m2-posr-none", "klein4-m2-pdr-none",
    "cyclic4-m2-pdr-none", "cyclic2-m3-pdr-none",
    "trivial-m2-posr-none", "trivial-m3-posr-none", "trivial-m4-posr-none",
    "trivial-m5-posr-none", "trivial-m6-posr-none", "trivial-m7-posr-none",
    "trivial-m2-pdr-none", "trivial-m3-pdr-none", "trivial-m4-pdr-none",
    "trivial-m5-pdr-none",
    "cyclic2-m5-posr-cited", "klein4-m3-posr-cited",
)
CLAIM_STATUS = {name: "Pass" for name in _PASSING} | {name: "Fail" for name in REFUTED}

# `posr search` calls of the search-small workload: (argv tail, status).
# Exit code 0 for each.  Witness verdicts follow Theorem 1.1 (cyclic:2, m=5)
# and Theorem 1.4 (klein4, m=3); the exhaustions follow Theorem 1.1(ii)-(iii)
# and the m=7 oriented rigid-digraph result; the m=6 digraph with digons
# is the documented counterexample to the m=6 PDR claim.
SEARCHES = (
    (("--group", "cyclic:2", "--m", "5"), "FoundWitness"),
    (("--group", "cyclic:2", "--m", "4"), "ExhaustedNone"),
    (("--group", "cyclic:3", "--m", "3"), "ExhaustedNone"),
    (("--group", "klein4", "--m", "3"), "FoundWitness"),
    (("--antisym", "--m", "7", "--oriented"), "ExhaustedNone"),
    (("--antisym", "--m", "6"), "FoundWitness"),
)

# `posr aut` inputs of the aut-symmetric workload: |Aut| in closed form.
AUT_ORDERS = {
    "empty24": factorial(24),                # S_24
    "triangles10": 3 ** 10 * factorial(10),  # C_3 wr S_10
    "cycle150": 150,                         # C_150
    "cyclic80_2posr": 80,                    # R(C_80), a 2-POSR (Theorem 1.1)
}

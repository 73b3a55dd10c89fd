"""Frozen oracle data shared by the test modules.

Every table except LEGACY_TABLE_AS_PRINTED is reproduced by
tests/regen_oracles.py, which takes the 50-digit roots from
bench/regen_refs.py (the edge conditions and the realizability inequality
stated without importing hypsimplex, each root bracketed in its domain box
and polished with mpmath) and checks them against a second formulation,
the identified edge lengths read off the inverse Coxeter-Schlafli matrix.
test_regen_oracles.py checks the frozen values against a fresh run, and
``python3 tests/regen_oracles.py --check`` prints the comparison.

TRUE_ROOTS holds the proper root of the edge-condition system for the 27
admissible pairs with a = 2..6, within one ulp of the 50-digit root.
LARGE_A_ROOTS holds the same for large first parameters, where the edge
conditions shrink with a and an absolute residual test alone once left
errors of up to 3e-7, and a Newton stop on an absolute step left angles
19% off at (10**12, 1.5 * 10**12).  IMPROPER_ROOTS holds the second,
improper root of each a = 2 pair with a proper root, and IMPROPER_ROOT_23
is its (2, 3) row.  BMAX_TABLE is the largest admissible b for a = 2..12.

LEGACY_TABLE stands for the historical reference tabulation of the 27
pairs of TRUE_ROOTS, corrected: it is TRUE_ROOTS rounded to the seven
significant digits the tabulation prints, so acceptance criterion 01 checks
solve() against the corrected roots at the tabulation's precision.
LEGACY_TABLE_AS_PRINTED keeps the printed rows unchanged.  They are not
roots: 23 of the 27 are more than 1e-5 from the root (worst (3, 8),
3.0e-3), the edge conditions leave residuals of 1.1e-5 to 9.3e-5 there,
and at every printed row one identified pair of edge lengths differs by
1.0e-5 to 6.5e-3, where the paper's edge conditions require both pairs to
agree (at the 50-digit roots they agree to 1e-48).  How the printed rows
were made is not known; the paper's damped iteration does not reproduce
them.  ``--check`` lists these figures row by row, and
test_regen_oracles.py asserts the edge-length part.
"""

# (a, b) -> (alpha1, beta1), within one ulp.
TRUE_ROOTS = {
    (2, 3): (1.2039358384794982, 0.59697087326137855),
    (2, 4): (1.3323370066493726, 0.36185112938808414),
    (2, 5): (1.422240287723615, 0.21820676702964392),
    (2, 6): (1.4864924318398326, 0.12158053411067257),
    (2, 7): (1.5341751696434009, 0.052204126481581898),
    (3, 4): (0.81000830131483024, 0.42710058965284188),
    (3, 5): (0.8954526121011978, 0.26010016983795577),
    (3, 6): (0.95883688699424678, 0.14733259866532834),
    (3, 7): (1.0068184520374425, 0.066170482834472692),
    (3, 8): (1.0441197749520055, 0.0049845045492394814),
    (4, 5): (0.60264965425704924, 0.34514046594719983),
    (4, 6): (0.66299364710689276, 0.22397517833672116),
    (4, 7): (0.70933482326897966, 0.13648424730585605),
    (4, 8): (0.74565961272528162, 0.070377390084451465),
    (4, 9): (0.77475468227384079, 0.018675525430970261),
    (5, 6): (0.47640281319396503, 0.29370699438072284),
    (5, 7): (0.52103140908540246, 0.20318007618595294),
    (5, 8): (0.55620478639292553, 0.13471757310199259),
    (5, 9): (0.58446665551710571, 0.081142236345901115),
    (5, 10): (0.60759636088943712, 0.03807682761012046),
    (5, 11): (0.62683884218895991, 0.0027045747155958199),
    (6, 7): (0.39235825176680184, 0.25690754654710747),
    (6, 8): (0.42661911367917069, 0.18719435276148016),
    (6, 9): (0.45421115385712008, 0.13263764784168422),
    (6, 10): (0.47682320202754721, 0.088784973196542355),
    (6, 11): (0.49565037017242336, 0.052768730647047472),
    (6, 12): (0.51154767061855786, 0.022660506784174425),
}

# (a, b) -> (alpha1, beta1): TRUE_ROOTS rounded to the seven significant
# digits of the historical tabulation.
LEGACY_TABLE = {
    pair: tuple(float(f"{v:.7g}") for v in root) for pair, root in TRUE_ROOTS.items()
}

# (a, b) -> (alpha1, beta1) as the historical tabulation prints it; these
# rows are not roots of the edge conditions (see the module docstring).
LEGACY_TABLE_AS_PRINTED = {
    (2, 3): (1.20394, 0.5969756),
    (2, 4): (1.332343, 0.3618578),
    (2, 5): (1.422264, 0.218217),
    (2, 6): (1.486543, 0.1215925),
    (2, 7): (1.534341, 5.222918e-02),
    (3, 4): (0.810013, 0.4270995),
    (3, 5): (0.8954629, 0.2600982),
    (3, 6): (0.9588664, 0.1473277),
    (3, 7): (1.006904, 6.615758e-02),
    (3, 8): (1.047133, 4.563809e-03),
    (4, 5): (0.6026575, 0.3451357),
    (4, 6): (0.6630102, 0.2239677),
    (4, 7): (0.7093756, 0.1364688),
    (4, 8): (0.7457473, 7.034869e-02),
    (4, 9): (0.775143, 1.856247e-02),
    (5, 6): (0.4764179, 0.293696),
    (5, 7): (0.5210571, 0.2031649),
    (5, 8): (0.5562545, 0.1346927),
    (5, 9): (0.5845534, 8.110417e-02),
    (5, 10): (0.6078031, 3.799561e-02),
    (5, 11): (0.6283055, 2.171273e-03),
    (6, 7): (0.3923899, 0.2568823),
    (6, 8): (0.4266642, 0.1871642),
    (6, 9): (0.454274, 0.1326011),
    (6, 10): (0.4769213, 8.873422e-02),
    (6, 11): (0.4958152, 5.269175e-02),
    (6, 12): (0.5119572, 2.248575e-02),
}

# (a, b) -> (alpha1, beta1), within one ulp; the same values as bench/refs.json.
LARGE_A_ROOTS = {
    (40, 80): (0.07849942317544166, 8.066212960380824e-05),
    (80, 156): (0.03892918108309172, 0.0006811962002054319),
    (80, 160): (0.03926486092951965, 1.009059196569274e-05),
    (200, 381): (0.015446523480215892, 0.0005228484245520516),
    (200, 391): (0.015587116517947246, 0.00024167882436654502),
    (200, 400): (0.015707640279263586, 6.459375285464469e-07),
    (10000000000, 15000000000): (2.792526803190927e-10, 6.981317007977318e-11),
    (1000000000000, 1500000000000): (2.7925268031909274e-12, 6.981317007977318e-13),
}

# (2, b) -> (alpha1, beta1): the second root of the system inside the full
# constraint box, left of alpha1 = pi/3; each fails the properness
# verification (positive determinant).  Within one ulp.
IMPROPER_ROOTS = {
    (2, 3): (0.07831235559557408, 0.853420512076393),
    (2, 4): (0.03240496482273442, 0.6347995236825056),
    (2, 5): (0.016369563330856745, 0.5059287372405382),
    (2, 6): (0.009393145993294742, 0.42075764967729806),
    (2, 7): (0.005882779566500609, 0.3602157163235622),
}

# The (2, 3) row of IMPROPER_ROOTS.
IMPROPER_ROOT_23 = (0.07831235559557408, 0.853420512076393)

# a -> largest admissible b, for a = 2..12.
BMAX_TABLE = {
    2: 7, 3: 8, 4: 9, 5: 11, 6: 12, 7: 14,
    8: 16, 9: 18, 10: 20, 11: 22, 12: 24,
}

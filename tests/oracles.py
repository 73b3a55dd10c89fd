"""Frozen oracle data shared by the test modules.

TRUE_ROOTS holds high-precision roots of the edge-condition system,
computed offline with 50-digit arithmetic by two independent formulations
(Newton on the edge conditions themselves, and Newton on the unsquared
edge-length equalities read off the inverse matrix); the two agreed to
all printed digits, so these are correct to full double precision.

LEGACY_TABLE holds the historical reference tabulation for the same 27
parameter pairs.  It was produced decades ago by a low-order iteration and
is under-converged: most rows carry absolute errors between 1e-5 and 3e-3
against the true roots, so tests that compare against it at tight
tolerances are expected to fail and say so.  See /root/notes/decisions.md
(outside the package) for the full evidence trail.

LARGE_A_ROOTS holds regression rows for large first parameters, where
the edge conditions shrink with a and an absolute residual test alone
leaves errors of up to 3e-7.  The values are the 50-digit roots of
bench/refs.json, produced by bench/regen_refs.py with mpmath, rounded to
double precision.
"""

# (a, b) -> (alpha1, beta1), correct to ~1 ulp.
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

# (a, b) -> (alpha1, beta1) as printed in the historical tabulation.
LEGACY_TABLE = {
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

# (a, b) -> (alpha1, beta1), from bench/refs.json.
LARGE_A_ROOTS = {
    (40, 80): (0.07849942317544166, 8.066212960380824e-05),
    (80, 156): (0.03892918108309172, 0.0006811962002054319),
    (80, 160): (0.03926486092951965, 1.009059196569274e-05),
    (200, 381): (0.015446523480215892, 0.0005228484245520516),
    (200, 391): (0.015587116517947246, 0.00024167882436654502),
    (200, 400): (0.015707640279263586, 6.459375285464469e-07),
}

# Second root of the (2, 3) system inside the full constraint box; it fails
# the properness verification (positive determinant).  Same offline
# provenance and precision as TRUE_ROOTS.
IMPROPER_ROOT_23 = (0.078312355595574075, 0.85342051207639301)

# a -> largest admissible b, for a = 2..12.
BMAX_TABLE = {
    2: 7, 3: 8, 4: 9, 5: 11, 6: 12, 7: 14,
    8: 16, 9: 18, 10: 20, 11: 22, 12: 24,
}

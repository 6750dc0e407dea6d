"""Committed reference data for the enumeration and canonical-form tests.

OEIS transcriptions (checked against the independent counting formulas in
oracles.py before being frozen here):

* A000055: free trees by vertex count
* A001429: connected unicyclic graphs by vertex count

CANONICAL_FORMS pins `canonical_form` output byte for byte, so that a
faster labeller cannot change a single trace or enumeration string.
"""

FREE_TREE_COUNTS = {
    0: 1,
    1: 1,
    2: 1,
    3: 1,
    4: 2,
    5: 3,
    6: 6,
    7: 11,
    8: 23,
    9: 47,
    10: 106,
    11: 235,
    12: 551,
    13: 1301,
    14: 3159,
}

UNICYCLIC_COUNTS = {
    3: 1,
    4: 2,
    5: 5,
    6: 13,
    7: 33,
    8: 89,
    9: 240,
    10: 657,
    11: 1806,
    12: 5026,
    13: 13999,
    14: 39260,
}


# (name, graph6 of a seeded random relabelling, its canonical_form), as
# produced by the labeller with twin pruning only, before automorphism
# pruning and string AHU codes were added.
CANONICAL_FORMS = [
    # general
    ("petersen", "IWQX_TO_W", "I?LRCecq?"),
    ("Q3", "G]EIPK", "G?]uf?"),
    ("Q4", "O`P_cgAcGECOWCBB@CsPO", "O?????NKqiLGd_i_X_F_?"),
    ("paley13", "Ldfa]ak]bBewAz", "L@TjdM\\mEUySxD"),
    ("rook4", "Oaag_SfK`Q{BfcoxMcAqP", "O?KqipdYckRGhHiEWLMCk"),
    ("rook3", "Ha]TXj`", "HBYleVS"),
    ("K4", "C~", "C~"),
    ("K6", "E~~w", "E~~w"),
    ("K33", "EFz_", "EFz_"),
    ("L(K5)", "InJlzrLew", "IJm}mveyW"),
    ("circulant(12;1,5)", "Kbc`APgDkMOw", "K??@xzKrF_]?"),
    ("circulant(10;1,3)", "IlaaXDXFO", "I?@|urg{?"),
    ("wheel7", "FY{[W", "FBjFw"),
    ("theta", "FbAgo", "F@Q^?"),
    ("random(n=5)", "DLK", "DmC"),
    ("random(n=7)", "Fg^C_", "F@UeW"),
    ("random(n=8)", "GyAwiW", "G@Q@~w"),
    ("random(n=9)", "HKwAEGf", "H?EHItq"),
    ("random(n=10)", "IW@gIPOg?", "I?Ca?KXgW"),
    ("random(n=11)", "JskObdM?II_", "J??O|PXXnW?"),
    ("random(n=12)", "Kg@UmxqTOOCF", "K_S?G[eElMEn"),
    ("random(n=12)", "Kl`AT_l[lP?C", "K??H_{cWWxzT"),
    ("random(n=14)", "Mg@D[AA|Lc?pGhq??", "M@??GS@DIDHeeFJy_"),
    # tree
    ("P1", "@", "@"),
    ("P2", "A_", "A_"),
    ("P9", "HO___TC", "HhE?GC@"),
    ("star6", "F?{GO", "FsaC?"),
    ("spider(3,3,2,1)", "I??CoXOG_", "Ip_GK?@?G"),
    ("caterpillar(3)", "QCOCA??A?A?AO??@?C__?`??cG?", "QiCGGG@_??_@?A??_?G?@??G??G"),
    ("prufer(n=7)", "FXA?o", "Fp_GG"),
    ("prufer(n=10)", "IS??QCEC_", "IiD?K?@?G"),
    ("prufer(n=13)", "LCIC??@A??aAWO", "LpCGS?@?G?_A?@"),
    ("prufer(n=16)", "OG_A?oG???W?@AG?gAA??", "OsE?GC@?S??@?@??_?O?@"),
    ("prufer(n=20)", "S?@_O@?g?C?_C??O?C????_CO?CE?GO??", "ShGGK?@?G?_C?@?@??G?G??C?_???G??C"),
    ("prufer(n=30)", "]????C@???AAG???I??O?_?AAC???@??CGG@??_?????o?@?AO???G?A???????O?E????G???", "]iD?GCC?G@?@?@_???G?@??C??O??G??G??_???G???_??C???@????_???_???@????G????G"),
    # unicyclic
    ("C3", "Bw", "Bw"),
    ("C11", "JKS?@?D@cC?", "JhCGGC@?K?_"),
    ("sun(4)", "O_G?C?Q@Q_@O?CB?G??@?", "OhGGGCA?G?_@?A??o?G?@"),
    ("unicyclic(n=6)", "EkL?", "EhcG"),
    ("unicyclic(n=9)", "H?IUAQA", "HhoGGC@"),
    ("unicyclic(n=12)", "K`@@PGAa?AO?", "KhGGGCA?K@?@"),
    ("unicyclic(n=15)", "N_O?h?AG?@gA_?A?@G?", "NhCOGCC_G?_@?@??_?O"),
    # forest
    ("P4+star3", "Go?[?_", "Gs?GOC"),
    ("3K1", "B?", "B?"),
    ("P3+P3+K1", "F?@H_", "FI?GO"),
    ("tree+tree", "O??A?OC?d?O?A?F??O_@?", "OpI?GC??G?_@?G??_?G?A"),
    # mixed
    ("C6+P5", "JK?OW?@aA@?", "JkC?GC@?GG_"),
    ("petersen+K4+P3", "P??@IdCA?Oa_AEW@O???@KG?", "PoCWw??????B?I?K?HGAc?X?"),
    ("rook3+C5+star2", "PGCAG__XC????BOgO?`L?@KO", "PoCGGc?????B?E?I_D_@d?LO"),
]

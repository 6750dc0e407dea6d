"""Committed reference data for the enumeration and canonical-form tests.

OEIS transcriptions (checked against the independent counting formulas in
oracles.py before being frozen here):

* A000055: free trees by vertex count
* A001429: connected unicyclic graphs by vertex count

CANONICAL_FORMS pins `canonical_form` output byte for byte, so that a
faster labeller cannot change a single enumeration string.
GENERAL_GRAPHS are graphs with a component of more edges than vertices,
which `canonical_form` must refuse.

TRACES pins `multiplicity_fast(g)[1].to_json()` byte for byte, so that a
change to how the trace is built cannot change what it says.
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
    # bicentral, with unequal and with equal halves, as produced while
    # trees and unicyclic graphs had separate labellers
    ("double_star_like(2,3)", "K?O?_@P@PAOC", "KkE?GCC?GG?@"),
    ("double_star_like(3,3)", "M_???QAG?_G?kO`??", "MkE?K?@?GA?@?O??_"),
    ("prufer(n=30)", "]????C@???AAG???I??O?_?AAC???@??CGG@??_?????o?@?AO???G?A???????O?E????G???", "]iD?GCC?G@?@?@_???G?@??C??O??G??G??_???G???_??C???@????_???_???@????G????G"),
    # unicyclic
    ("C3", "Bw", "Bw"),
    ("C11", "JKS?@?D@cC?", "JhCGGC@?K?_"),
    ("sun(4)", "O_G?C?Q@Q_@O?CB?G??@?", "OhGGGCA?G?_@?A??o?G?@"),
    ("unicyclic(n=6)", "EkL?", "EhcG"),
    ("unicyclic(n=9)", "H?IUAQA", "HhoGGC@"),
    ("unicyclic(n=12)", "K`@@PGAa?AO?", "KhGGGCA?K@?@"),
    ("unicyclic(n=15)", "N_O?h?AG?@gA_?A?@G?", "NhCOGCC_G?_@?@??_?O"),
    # drawn as a random graph, but it has 5 edges on 5 vertices
    ("random(n=5)", "DLK", "DmC"),
    # forest
    ("P4+star3", "Go?[?_", "Gs?GOC"),
    ("3K1", "B?", "B?"),
    ("P3+P3+K1", "F?@H_", "FI?GO"),
    ("tree+tree", "O??A?OC?d?O?A?F??O_@?", "OpI?GC??G?_@?G??_?G?A"),
    # mixed
    ("C6+P5", "JK?OW?@aA@?", "JkC?GC@?GG_"),
]


# (name, graph6 of a seeded random relabelling): vertex-transitive and
# random graphs, and disjoint unions in which one component has more edges
# than vertices.
GENERAL_GRAPHS = [
    ("petersen", "IWQX_TO_W"),
    ("Q3", "G]EIPK"),
    ("Q4", "O`P_cgAcGECOWCBB@CsPO"),
    ("paley13", "Ldfa]ak]bBewAz"),
    ("rook4", "Oaag_SfK`Q{BfcoxMcAqP"),
    ("rook3", "Ha]TXj`"),
    ("K4", "C~"),
    ("K6", "E~~w"),
    ("K33", "EFz_"),
    ("L(K5)", "InJlzrLew"),
    ("circulant(12;1,5)", "Kbc`APgDkMOw"),
    ("circulant(10;1,3)", "IlaaXDXFO"),
    ("wheel7", "FY{[W"),
    ("theta", "FbAgo"),
    ("random(n=7)", "Fg^C_"),
    ("random(n=8)", "GyAwiW"),
    ("random(n=9)", "HKwAEGf"),
    ("random(n=10)", "IW@gIPOg?"),
    ("random(n=11)", "JskObdM?II_"),
    ("random(n=12)", "Kg@UmxqTOOCF"),
    ("random(n=12)", "Kl`AT_l[lP?C"),
    ("random(n=14)", "Mg@D[AA|Lc?pGhq??"),
    ("petersen+K4+P3", "P??@IdCA?Oa_AEW@O???@KG?"),
    ("rook3+C5+star2", "PGCAG__XC????BOgO?`L?@KO"),
]


# (name, graph6 of a seeded random relabelling, json.dumps of its
# multiplicity_fast trace with sorted keys), as produced while every trace
# string was still made eagerly.  Together they fire every rule of the
# pipeline, and the last three are disconnected with several terminal
# components.
TRACES = [
    ('star3', 'CF',
     '{"input_g6": "CF", "steps": [{"after_g6": "A_", "before_g6": "Cs", "offset": 2, "rule": "PendantCluster"}, {"after_g6": "A_", "before_g6": "A_", "offset": 0, "rule": "ExactRankFallback"}], "total": 2}'),
    ('spider(3,3,2,1,1)', 'J??TWb?A?C?',
     '{"input_g6": "J??TWb?A?C?", "steps": [{"after_g6": "Ip_GK?@?G", "before_g6": "JsE?GE??G?_", "offset": 1, "rule": "PendantCluster"}, {"after_g6": "Fp_GG", "before_g6": "Ip_GK?@?G", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "Cp", "before_g6": "Fp_GG", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "Cp", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}], "total": 1}'),
    ('spider(2,2,2)', 'FkGAG',
     '{"input_g6": "FkGAG", "steps": [{"after_g6": "FkE?G", "before_g6": "FkE?G", "offset": 0, "rule": "StarLikeZero"}], "total": 0}'),
    ('double-star-like(2,3)', 'KCC@?cGOOgO?',
     '{"input_g6": "KCC@?cGOOgO?", "steps": [{"after_g6": "KkE?GCC?GG?@", "before_g6": "KkE?GCC?GG?@", "offset": 0, "rule": "DoubleStarLikeZero"}], "total": 0}'),
    ('C12', 'K_A?Q?gD@AAO',
     '{"input_g6": "K_A?Q?gD@AAO", "steps": [{"after_g6": "KhCGGC@?G?o@", "before_g6": "KhCGGC@?G?o@", "offset": 2, "rule": "CycleClosedForm"}], "total": 2}'),
    ('C9', 'HGGSIaG',
     '{"input_g6": "HGGSIaG", "steps": [{"after_g6": "HhCGGE@", "before_g6": "HhCGGE@", "offset": 0, "rule": "CycleClosedForm"}], "total": 0}'),
    ('caterpillar(2)', 'MA@_GC?A???LcC?G?',
     '{"input_g6": "MA@_GC?A???LcC?G?", "steps": [{"after_g6": "MpCGOE??G?_@?A??_", "before_g6": "MpCGOE??G?_@?A??_", "offset": 2, "rule": "ExactRankFallback"}], "total": 2}'),
    ('sun(3)', 'KK@?KQ?A_?i?',
     '{"input_g6": "KK@?KQ?A_?i?", "steps": [{"after_g6": "KhGGGCA?K?_@", "before_g6": "KhGGGCA?K?_@", "offset": 3, "rule": "ExactRankFallback"}], "total": 3}'),
    ('petersen', 'IELdCGHOg',
     '{"input_g6": "IELdCGHOg", "steps": [{"after_g6": "I?LRCecq?", "before_g6": "I?LRCecq?", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('circulant(11;1,3)', 'JYNAOWs_{e?',
     '{"input_g6": "JYNAOWs_{e?", "steps": [{"after_g6": "J?CilVSyF_?", "before_g6": "J?CilVSyF_?", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('K4', 'C~',
     '{"input_g6": "C~", "steps": [{"after_g6": "C~", "before_g6": "C~", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('P7', 'F`APO',
     '{"input_g6": "F`APO", "steps": [{"after_g6": "Cp", "before_g6": "Fh_GG", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "Cp", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('prufer(12)', 'KoCS@___A??C',
     '{"input_g6": "KoCS@___A??C", "steps": [{"after_g6": "IkCOK?@?G", "before_g6": "KkCO_E??G?_A", "offset": 2, "rule": "PendantCluster"}, {"after_g6": "Fp_GG", "before_g6": "IkCOK?@?G", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "Cp", "before_g6": "Fp_GG", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "Cp", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}], "total": 2}'),
    ('prufer(16)', 'OG?KASOC??a??C?@?C?CO',
     '{"input_g6": "OG?KASOC??a??C?@?C?CO", "steps": [{"after_g6": "OiCG_E??G?_A?@??_?_?@", "before_g6": "OiCG_E??G?_A?@??_?_?@", "offset": 1, "rule": "ExactRankFallback"}], "total": 1}'),
    ('prufer(20)', 'S@?GB??@@?C?@???OOO??A@??A?_A?@?g',
     '{"input_g6": "S@?GB??@@?C?@???OOO??A@??A?_A?@?g", "steps": [{"after_g6": "QiCG_C@_??_@?@?@??G?G??C??G", "before_g6": "SiCGO_@?G@O??@??_?G?A??C?@???G??C", "offset": 2, "rule": "PendantCluster"}, {"after_g6": "NiCG_C@_??_@?@?@??G", "before_g6": "QiCG_C@_??_@?@?@??G?G??C??G", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "KiCK?C@?G@?@", "before_g6": "NiCG_C@_??_@?@?@??G", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "HiE?GC@", "before_g6": "KiCK?C@?G@?@", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "Ep_G", "before_g6": "HiE?GC@", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "Ep_G", "before_g6": "Ep_G", "offset": 0, "rule": "ExactRankFallback"}], "total": 2}'),
    ('gnp(9,1/3)', 'HoG???_',
     '{"input_g6": "HoG???_", "steps": [{"after_g6": "G??GOC", "before_g6": "H??GOCA", "offset": 1, "rule": "PendantCluster"}, {"after_g6": "D??", "before_g6": "G??GOC", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}], "total": 1}'),
    ('gnp(12,1/4)', 'Kh?gAOABCI@?',
     '{"input_g6": "Kh?gAOABCI@?", "steps": [{"after_g6": "I??WqCdiG", "before_g6": "I??WqCdiG", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "A_", "before_g6": "A_", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('C6+P6+star3+spider(2,2,2)', 'V?_I?????G???C???O@?O?G?P??_A?AA?A???@??@g??',
     '{"input_g6": "V?_I?????G???C???O@?O?G?P??_A?AA?A???@??@g??", "steps": [{"after_g6": "T`C_GC??G?_@?@?G_???@??C??_??G?@???@", "before_g6": "Vs?GGO@?G??@?@??_?G?P?????G??G??O??@??A????_", "offset": 2, "rule": "PendantCluster"}, {"after_g6": "Q`G?GC@?GG_??@??_?_?@?@???G", "before_g6": "T`C_GC??G?_@?@?G_???@??C??_??G?@???@", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "P`?GGC@AG??@?@?A??G?O??C", "before_g6": "Q`G?GC@?GG_??@??_?_?@?@???G", "offset": 1, "rule": "PendantCluster"}, {"after_g6": "A_", "before_g6": "A_", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "A_", "before_g6": "A_", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "EhEG", "before_g6": "EhEG", "offset": 2, "rule": "CycleClosedForm"}, {"after_g6": "FkE?G", "before_g6": "FkE?G", "offset": 0, "rule": "StarLikeZero"}], "total": 5}'),
    ('C7+double-star-like(2,2)+K1', 'QAA??OCG???@_??Q?C??GDC?G?O',
     '{"input_g6": "QAA??OCG???@_??Q?C??GDC?G?O", "steps": [{"after_g6": "IkE?GCC?G", "before_g6": "IkE?GCC?G", "offset": 0, "rule": "DoubleStarLikeZero"}, {"after_g6": "FhCKG", "before_g6": "FhCKG", "offset": 0, "rule": "CycleClosedForm"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('spider(3,2,2,1)+sun(2)', 'P?@?@WGO??A??a??aO?_O_O?',
     '{"input_g6": "P?@?@WGO??A??a??aO?_O_O?", "steps": [{"after_g6": "Mp_G?C@?G@?@?`??_", "before_g6": "PhGKGC??G@?@?G??_C??@??C", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "Ep_G", "before_g6": "Ep_G", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "GhGKGC", "before_g6": "GhGKGC", "offset": 2, "rule": "ExactRankFallback"}], "total": 2}'),
]

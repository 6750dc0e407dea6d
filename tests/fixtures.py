"""Committed reference data for the enumeration and canonical-form tests.

OEIS transcriptions (checked against the independent counting formulas in
oracles.py before being frozen here):

* A000055: free trees by vertex count
* A001429: connected unicyclic graphs by vertex count

TREE_LEVEL_SHA256 and UNICYCLIC_LEVEL_SHA256 pin every enumeration level
byte for byte, so that a new generator cannot change a single string.

CLASS_TREE_COUNTS and CLASS_UNICYCLIC_COUNTS pin the size of the class of
Theorems 1.2 and 1.3 at every order up to the caps, as the filter over
each family counted it.

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

# Reduced graphs without pendant P_3, by order: trees, then connected
# unicyclic graphs.  P_4 and P_5 make 4 and 5 empty for trees.
CLASS_TREE_COUNTS = {
    1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 1, 7: 1, 8: 2, 9: 3, 10: 6, 11: 10,
    12: 20, 13: 37, 14: 75, 15: 146, 16: 302,
}

CLASS_UNICYCLIC_COUNTS = {
    3: 1, 4: 2, 5: 4, 6: 8, 7: 14, 8: 29, 9: 58, 10: 124, 11: 263,
    12: 583, 13: 1279, 14: 2869,
}


# SHA-256 of "\n".join(level) for every enumeration level up to the
# caps: the sorted canonical graph6 strings of the free trees of order n
# and of the connected unicyclic graphs of order n, pinned byte for byte
# as the enumeration that grew each level by a leaf and kept one graph per
# canonical form produced them.
TREE_LEVEL_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "e52e1ceda3c73b493c102c8085db4343bae2f6f9fec59b841578b1c89bb0b206",
    4: "56bfd21a38ed87f91a72a6f2d7f7545990ee4d239554a6eb3c809a9a9697fe9b",
    5: "990923276c96ff8a47a57116c0a287489756b4adbd8872c60189a2d5bcea10cd",
    6: "bd506629a7c8fad96049a4c8eb229b819c05e0dd0f1572a4ccc44e61e24b08cc",
    7: "bb5f7e5139a19b47de2adbab6805bfa8fd8e8a8b45e7657e8dcdcc7594820c81",
    8: "69a5e111829f8fad6caec037baf8b5e958ef422a7fc991ccce815dbc51e0c7c6",
    9: "424a5db8416fa2a5c3d0cf42bd2bf4a313cff087fdc9fdf9634a613fe62349fd",
    10: "696e1d24f3bb34018e86355bf330261e960e1f3753be680415bf820656a986d5",
    11: "f4220bd6cdb02e548bf7727281f720da1dd6cc7bec0ab48f73c8664928557baf",
    12: "48fe4b993a4849f06346d6030b83f6a2462432a0bdbc446558f2bdeb8d491953",
    13: "978b7a39d0e9157cbcd0ac8a5d8e2c1f9aed95f890f4b2e6258d12bbf551c662",
    14: "535c3073fd86a92a5b5d5244fb762a2933d0b530cdbe6f89a66f07238097d2bc",
    15: "784ca6be8790e626508486e39f8e09ef1a07efd3c4f002d1741c35920a372793",
    16: "4e9520c0a88124c249746a5d2fa4d09500b8a3270a9659649279806cd11ad2b5",
}

UNICYCLIC_LEVEL_SHA256 = {
    3: "4a469b3ce3caaad469f8c97e9176aacbe84216672889aa70c62b37f62e7aa427",
    4: "00ddba398dda351604d9d0660f46784fa65a64250f292afe7a3f33d06ed752dc",
    5: "edb49821a6efb65d612261f045cb8694fb54aa9d8a0f2ec46fe9c854f7b537c0",
    6: "308dc0dd82e4450e039cbc4fe1acf01863453dbec7ec657cc4deab7728a5bbbf",
    7: "117757bf340963d3c88265510e8daae76aa02ec4f3e22805ac97ebb69e84deff",
    8: "a314a6a83527053ee4d2f9cc06482941f00a94ba1ed570ba1e08bf229021acc9",
    9: "cf0df9f024222b5376c8d40de39f4b8184e17d6dec778608b9fe870bbc1df01c",
    10: "c5b5de3d116296c1599331dbe8fb4f79e9681aed7699feb9dba8ac826d76a49f",
    11: "fefa8a2958e83ac4b9d9a5ba2546c2f9d57841b337212c3cecf11f7397ad0096",
    12: "07093dd05d62115a4d2c6d7549bfd81b057fafbc8f006f823d3f1ec33610dc52",
    13: "97d8fc549de9121a739a4065abc4c60a78cd87f6b32cb09ab99e2e9fd53d051b",
    14: "e86198ec5bda49c398a7223ad63d9b9556bcb7c2f6ab48202273aa4979c86470",
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
     '{"input_g6": "FkGAG", "steps": [{"after_g6": "FkE?G", "before_g6": "FkE?G", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('double-star-like(2,3)', 'KCC@?cGOOgO?',
     '{"input_g6": "KCC@?cGOOgO?", "steps": [{"after_g6": "KkE?GCC?GG?@", "before_g6": "KkE?GCC?GG?@", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('C12', 'K_A?Q?gD@AAO',
     '{"input_g6": "K_A?Q?gD@AAO", "steps": [{"after_g6": "KhCGGC@?G?o@", "before_g6": "KhCGGC@?G?o@", "offset": 2, "rule": "ExactRankFallback"}], "total": 2}'),
    ('C9', 'HGGSIaG',
     '{"input_g6": "HGGSIaG", "steps": [{"after_g6": "HhCGGE@", "before_g6": "HhCGGE@", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
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
     '{"input_g6": "V?_I?????G???C???O@?O?G?P??_A?AA?A???@??@g??", "steps": [{"after_g6": "T`C_GC??G?_@?@?G_???@??C??_??G?@???@", "before_g6": "Vs?GGO@?G??@?@??_?G?P?????G??G??O??@??A????_", "offset": 2, "rule": "PendantCluster"}, {"after_g6": "Q`G?GC@?GG_??@??_?_?@?@???G", "before_g6": "T`C_GC??G?_@?@?G_???@??C??_??G?@???@", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "P`?GGC@AG??@?@?A??G?O??C", "before_g6": "Q`G?GC@?GG_??@??_?_?@?@???G", "offset": 1, "rule": "PendantCluster"}, {"after_g6": "A_", "before_g6": "A_", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "A_", "before_g6": "A_", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "EhEG", "before_g6": "EhEG", "offset": 2, "rule": "ExactRankFallback"}, {"after_g6": "FkE?G", "before_g6": "FkE?G", "offset": 0, "rule": "ExactRankFallback"}], "total": 5}'),
    ('C7+double-star-like(2,2)+K1', 'QAA??OCG???@_??Q?C??GDC?G?O',
     '{"input_g6": "QAA??OCG???@_??Q?C??GDC?G?O", "steps": [{"after_g6": "IkE?GCC?G", "before_g6": "IkE?GCC?G", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "FhCKG", "before_g6": "FhCKG", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "@", "before_g6": "@", "offset": 0, "rule": "ExactRankFallback"}], "total": 0}'),
    ('spider(3,2,2,1)+sun(2)', 'P?@?@WGO??A??a??aO?_O_O?',
     '{"input_g6": "P?@?@WGO??A??a??aO?_O_O?", "steps": [{"after_g6": "Mp_G?C@?G@?@?`??_", "before_g6": "PhGKGC??G@?@?G??_C??@??C", "offset": 0, "rule": "DeletePendantP3"}, {"after_g6": "Ep_G", "before_g6": "Ep_G", "offset": 0, "rule": "ExactRankFallback"}, {"after_g6": "GhGKGC", "before_g6": "GhGKGC", "offset": 2, "rule": "ExactRankFallback"}], "total": 2}'),
]

"""The CLI's output bytes, pinned.

Every expected byte of a CLI report lives in this table: a config (its
"task" key names the CLI task) and the sha256 of every file the task
writes.  The one test writes the config to a file, runs it through
`affine_mixer.cli.main` with `--out`, and requires exit status 0, the
same set of written files and the same digest of each.  It imports
nothing from the checkout but the package, so it also runs against an
installed copy from any directory:

    cp tests/test_pinned.py "$TMPDIR" && cd "$TMPDIR" && python -m pytest -q test_pinned.py

A change meant to move bytes re-pins the entries it moves, with digests
taken before the change, and names them in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from affine_mixer.cli import main

FAIR_1D = {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]}
FAIR_2D = {"k": 2, "support": [[0, 0], [1, 0]], "probs": [0.5, 0.5]}
FAIR_3 = {"k": 2, "support": [[0, 0], [1, 0], [0, 1]], "probs": [1 / 3] * 3}

# name -> (config, {written file: sha256})
PINNED = {
    # The classify and verify-identities reports of three matrices: the
    # exact-lab benchmark's classify matrix (two integer eigenvalues near
    # 1e7 beside the cat map block) and identities matrix (six distinct
    # integer eigenvalues) at seed 1, and the companion matrix of
    # x^5 - x - 1, whose characteristic polynomial stays an unfactored
    # remainder.
    "lab-classify.classify": (
        {
            "task": "classify",
            "matrix": [
                [30015834, 40021113, -80042224, -20010556],
                [40016521, 50021802, -100043598, -20010554],
                [30015831, 40021111, -80042218, -20010555],
                [-10014450, -20019729, 40039457, 20010557],
            ],
        },
        {
            "classify.json": "e185c7b1b63dc5bf0be3017e9f93baa1d0f5df98dc06bee61a43116d936857c8",
        },
    ),
    "lab-classify.verify-identities": (
        {
            "task": "verify-identities",
            "matrix": [
                [30015834, 40021113, -80042224, -20010556],
                [40016521, 50021802, -100043598, -20010554],
                [30015831, 40021111, -80042218, -20010555],
                [-10014450, -20019729, 40039457, 20010557],
            ],
        },
        {
            "identities.csv": "43498ce51aeff8dd611318695f5cc52f659ed9faf4cdebcc5d0e5e3d1d78aa00",
            "identities.json": "f4b462008c212d88364f89b9b7c8499550e86555f02910d80fa36fbb2b9005cd",
        },
    ),
    "lab-identities.classify": (
        {
            "task": "classify",
            "matrix": [
                [-4, 5, 0, 0, 0, 0],
                [0, -9, 0, 0, 0, 0],
                [17, 17, 13, 0, 0, 6],
                [-11, -33, -11, 2, 0, 11],
                [34, 14, 34, 10, 7, -10],
                [0, 0, 0, 0, 0, 19],
            ],
        },
        {
            "classify.json": "57d90063fd7c43067e4ac0fe1029039ed340d67ff115b01a527c1efe8af7657d",
        },
    ),
    "lab-identities.verify-identities": (
        {
            "task": "verify-identities",
            "matrix": [
                [-4, 5, 0, 0, 0, 0],
                [0, -9, 0, 0, 0, 0],
                [17, 17, 13, 0, 0, 6],
                [-11, -33, -11, 2, 0, 11],
                [34, 14, 34, 10, 7, -10],
                [0, 0, 0, 0, 0, 19],
            ],
        },
        {
            "identities.csv": "1f937c36e8c02af1517f984a786b62450b7858f94ed1a0c83ebbd9864d9577b8",
            "identities.json": "40666d29339c61862aca812053de1348c89327abbec5758350bc264c7688a3f3",
        },
    ),
    "companion-5.classify": (
        {
            "task": "classify",
            "matrix": [
                [0, 0, 0, 0, 1],
                [1, 0, 0, 0, 1],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
            ],
        },
        {
            "classify.json": "bbd604552761ec9c7abab2483b350dc27c41c29e525d08623a0329e89cfa36cb",
        },
    ),
    "companion-5.verify-identities": (
        {
            "task": "verify-identities",
            "matrix": [
                [0, 0, 0, 0, 1],
                [1, 0, 0, 0, 1],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
            ],
        },
        {
            "identities.csv": "477dceb6a39ff6786d3e69f3dff3f92f26148485ead8db1a2b20e5f88e71fb2c",
            "identities.json": "621fc1c2daa4507cd11f32fcfda2f6dc2cc63021c0849654f94aa64a41d678d0",
        },
    ),
    # Bounds, sweep and evolve reports: A = 2 on the rho certificate, whose
    # column goes empty at n = 7; the quarter turn on the gamma certificate;
    # an A = I sweep with support {0, 2}, so p = 4 is inadmissible by
    # det(B), p = 13 is unmixed at n_cap = 30, and four rows feed the fits;
    # two evolve runs on p**k >= 2**10, where the early steps run on the
    # support: the cat map with an empirical law, and A = 3 with three
    # unequal increments from x0 = 7; an A = 2 sweep on p from 1e4 to 1e5,
    # whose early steps run on the support and whose first tv sums the
    # counting certificate skips; an evolve in k = 3 from a nonzero x0 whose
    # folded shifts (0, 0, 0), (1, 12, 0) and (3, 1, 4) have zero, two and
    # three nonzero components, so each dense step splits a translate into
    # slabs on two and on three axes; and a sweep in the paper's general
    # case, |lambda_1| = 1 < |lambda_2| (A = [[1, 1], [0, 2]], three fair
    # increments), where p = 31 mixes within the dense prefix and p = 61 and
    # 101 are answered by the Fourier search with a frequency permutation of
    # its own (A is not symmetric).  The same general case at p = 101 and
    # 201 with n_cap 10**7, where p = 201 starts its search from a hint
    # predicted from p = 101; and A = I in k = 2 with the same increments on
    # an unsorted p_list with p = 101 repeated, each later row hinted from
    # the nearest earlier one by ratio of p (the repeat from itself).
    "bounds-rho": (
        {"task": "bounds", "matrix": [[2]], "increments": FAIR_1D, "p": 101, "n": 30},
        {
            "bounds.csv": "3d44161b59e998625ba3d980068fc541f2bc07b1607948d59b1cd3daf63879af",
            "bounds.json": "a0c0db5348b67f3e4402017db5ca547d06a2b59f9076837bbc3ebee6f5c7a196",
        },
    ),
    "bounds-gamma": (
        {"task": "bounds", "matrix": [[0, -1], [1, 0]], "increments": FAIR_2D, "p": 101, "n": 20},
        {
            "bounds.csv": "02ab1ea3b662ac2a7d18d0c8af988d3364a5773bfea0a048f65dc910f6533e9e",
            "bounds.json": "d1a9ba6cb8ee7ecb8438273700b249a587498097f65735d9271d3a47c7a83158",
        },
    ),
    "sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[1]],
            "increments": {"k": 1, "support": [[0], [2]], "probs": [0.5, 0.5]},
            "p_list": [4, 5, 7, 9, 11, 13],
            "n_cap": 30,
        },
        {
            "sweep.csv": "9077e1de92cb9ebf701f571206e808eb327011e0f7bb78455df2686a48b80929",
            "sweep.json": "9bd81f00ad3fb6fcb897dde679fbff86c948c633644a386d4d92f88de5c7a4be",
        },
    ),
    "evolve-cat": (
        {
            "task": "evolve",
            "matrix": [[2, 1], [1, 1]],
            "increments": FAIR_2D,
            "p": 101,
            "n": 30,
            "trials": 200,
            "seed": 7,
        },
        {
            "evolve.csv": "51f1490e8af7a72d09b7486f326752319f5ab73069f022180d78cca1a4911a08",
            "evolve.json": "e680795e28853de8b3f613a21824a3b4115d1dfda4e083638be150cab62ea1e5",
        },
    ),
    "evolve-three-point": (
        {
            "task": "evolve",
            "matrix": [[3]],
            "increments": {"k": 1, "support": [[0], [1], [5]], "probs": [0.2, 0.3, 0.5]},
            "x0": [7],
            "p": 1031,
            "n": 40,
        },
        {
            "evolve.csv": "e8a4619793ae451b91da7a3658bbd3b5344a652d6c5c750b7770b61feb3f7a5f",
            "evolve.json": "1186b35bdada3ecbb60c5250008924c1b0d8495087925b95eec78744b719a83b",
        },
    ),
    "sweep-support": (
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": FAIR_1D,
            "p_list": [10007, 30011, 65537, 99991],
        },
        {
            "sweep.csv": "7ed95e5cc1944fe81f650644bf573edecc06380ec44be2e6e6f344c8a9380f59",
            "sweep.json": "66fa70514b66a12b5ce8c60335647875f64d146372f4dd864ed3815827dbe231",
        },
    ),
    "evolve-slabs": (
        {
            "task": "evolve",
            "matrix": [[1, 1, 0], [0, 1, 1], [1, 0, 2]],
            "increments": {
                "k": 3,
                "support": [[0, 0, 0], [1, -1, 0], [3, 1, 4]],
                "probs": [0.25, 0.35, 0.4],
            },
            "x0": [2, 5, 7],
            "p": 13,
            "n": 25,
        },
        {
            "evolve.csv": "1ee1c2f4ff374a21843bfc0c794ee79ef8aa786ca1453dfafa552d78e3077a5e",
            "evolve.json": "0dfaad7bdf261f60cb46d60d0b42ad77fdcc486622dcbe700ca68bf0a39af673",
        },
    ),
    "sweep-general": (
        {
            "task": "mixing-sweep",
            "matrix": [[1, 1], [0, 2]],
            "increments": FAIR_3,
            "p_list": [31, 61, 101],
            "eps": 0.25,
            "n_cap": 10000,
        },
        {
            "sweep.csv": "0da99c8dbc084ecc65b0d3b5c26577ae6b034b29c99e8807c5114025bddc2d56",
            "sweep.json": "af02026d31ff07b21aa8ca1b71bd8c716da0207bcdf088b6bb69effc822edf51",
        },
    ),
    "sweep-general-hinted": (
        {
            "task": "mixing-sweep",
            "matrix": [[1, 1], [0, 2]],
            "increments": FAIR_3,
            "p_list": [101, 201],
            "eps": 0.25,
            "n_cap": 10**7,
        },
        {
            "sweep.csv": "eadb3a887b0dfa315d2fc10a00c6e065760416180588e19170ba1455d0e918d8",
            "sweep.json": "32fcc1424c17a91606671df8d3a3ce3af0280417512848170f52d05608ea6a89",
        },
    ),
    "sweep-identity-2d-unsorted": (
        {
            "task": "mixing-sweep",
            "matrix": [[1, 0], [0, 1]],
            "increments": FAIR_3,
            "p_list": [201, 101, 151, 101],
            "eps": 0.25,
            "n_cap": 10**7,
        },
        {
            "sweep.csv": "b8b897a8bab5a5b9c4328e671d9ba84fa6f33ee08f6798b90b3fbc2861f45b23",
            "sweep.json": "f443b32cf71dfe9d9b6b7a75fd0e944089b26bb10a20ff19fc0274c83b61cba9",
        },
    ),
    # A = 2 evolved from the point mass at p = 11.  Sweeps with A = 2, -2
    # and 3 on the same moduli, where the last certified arc steps straight
    # into the dense law (a < 0, and |a| > 2), and A = 2 at
    # eps = 1 - (2**9 + 1.5) / 1031, where P_9 (uniform on 2**9 states)
    # sits 1.5 states inside the counting certificate.  A = -3 with a
    # three-point support at p = 1031 (past the floor 2**10): the law steps
    # on arcs from the point mass and goes dense at n = 5.  The cat map with
    # three fair increments at p = 101: the law steps on its support up to
    # n = 4, then densely by slabs, the middle translate's products passing
    # through the scratch block.  A = 11 (past the strided-slice cutoff 8)
    # at p = 1031: the arc of P_3 is made dense since its image would wrap,
    # and steps 4 to 9 push the law through the permutation table.  Bounds
    # at p = 3 that freeze at n = 50, so rows 51..80 are joined one step at
    # a time.  Digit censuses whose digits are concatenated (sigma <= 10)
    # and joined by '-' (sigma > 10), and one at p = 12, t = 4, where
    # 16 a mod 12 is 0, 4 or 8, so block index 0 is distinct and index 1
    # is not.
    "evolve-a2": (
        {"task": "evolve", "matrix": [[2]], "increments": FAIR_1D, "p": 11, "n": 3},
        {
            "evolve.csv": "03f597056d6a55a6d4b1652ba561bbb9b784f03c9ab3dac705c628f039856f3c",
            "evolve.json": "216060a613cc179913fe3f45fe9e62fbdfd2c2fe00334c04bee059f14f1e4a01",
        },
    ),
    "sweep-a2": (
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": FAIR_1D,
            "p_list": [1031, 4099, 16411],
        },
        {
            "sweep.csv": "761fc060e6c7730fff55a08e3997fdc08c6479e855607c6d549d75b502f82ffb",
            "sweep.json": "b17befe9294b0e7ab789fe72bc318b8639b3b6678586b90e02c2c9c212e48b25",
        },
    ),
    "sweep-a-2": (
        {
            "task": "mixing-sweep",
            "matrix": [[-2]],
            "increments": FAIR_1D,
            "p_list": [1031, 4099, 16411],
        },
        {
            "sweep.csv": "761fc060e6c7730fff55a08e3997fdc08c6479e855607c6d549d75b502f82ffb",
            "sweep.json": "b17befe9294b0e7ab789fe72bc318b8639b3b6678586b90e02c2c9c212e48b25",
        },
    ),
    "sweep-a3": (
        {
            "task": "mixing-sweep",
            "matrix": [[3]],
            "increments": FAIR_1D,
            "p_list": [1031, 4099, 16411],
        },
        {
            "sweep.csv": "ea6c26b652c21b413e6cf6af96f37457421dd8b9555ec0707ae62141008205ff",
            "sweep.json": "1c9553fd4fce6adfcb40a3b697c3ab4ebe4a17b9c413e2ac7fcaf4cb60adf0d8",
        },
    ),
    "sweep-a2-edge-eps": (
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": FAIR_1D,
            "p_list": [1031],
            "eps": 0.5019398642095053,
        },
        {
            "sweep.csv": "2e9fe1ae79ac55f0ef8aa7e0d075da411db067cb40b19658602d4b04cf411ec9",
            "sweep.json": "a5ddb14f292a03577cf7c40fd117df424352a2a41016976b20832beba7d94a89",
        },
    ),
    "evolve-arc-a-3": (
        {
            "task": "evolve",
            "matrix": [[-3]],
            "increments": {"k": 1, "support": [[0], [1], [5]], "probs": [0.25, 0.25, 0.5]},
            "x0": [17],
            "p": 1031,
            "n": 9,
        },
        {
            "evolve.csv": "c3f1ed0c885e7dd6d7daa6b0bf208df1bdc31fd8fe5e271890a1548b7bec7393",
            "evolve.json": "ed9e02a049ad9e6abb04edcc07d8d847b820ca96dae3edd26cfe30b59d4ada95",
        },
    ),
    "evolve-cat-three-point": (
        {"task": "evolve", "matrix": [[2, 1], [1, 1]], "increments": FAIR_3, "p": 101, "n": 12},
        {
            "evolve.csv": "58a227e7ef97a9e16a0bf0a452b64ca7071a9445b8ec41356dc30ed4d62f5962",
            "evolve.json": "2f2e79bfcc3112519e094c89713f5e92e2b89c8d6f5795cd753c1b5835a94883",
        },
    ),
    "evolve-a11": (
        {"task": "evolve", "matrix": [[11]], "increments": FAIR_1D, "p": 1031, "n": 9},
        {
            "evolve.csv": "f8c4ca095effdd36a13c2f9995a39f40845f69d1f1b76a78e65f83700094c165",
            "evolve.json": "ca08db689ac0801e2ac530a7a9fd49908f0e580032411ca2fca7ce48a4a0ceed",
        },
    ),
    "bounds-frozen": (
        {"task": "bounds", "matrix": [[2]], "increments": FAIR_1D, "p": 3, "n": 80},
        {
            "bounds.csv": "177ec34447d5d7117817282f2f647172126590e94f1619dc75a2fae254390d22",
            "bounds.json": "3f02537b839868ec2321591f0304e14433931e0c868b888443b2fd1a622173ea",
        },
    ),
    "census-sigma2": (
        {"task": "digit-census", "p": 7, "sigma": 2, "r": 2},
        {
            "census.csv": "4c49f65fffcf9d465a4550559bf9511bc19da9df2d5e5f83bd0895b888a18195",
            "census.json": "0bb1a1532b3b05f8f676765d5b0700fd04c8b1bf06645bccd38d9b1ff6476cf3",
        },
    ),
    "census-sigma16": (
        {"task": "digit-census", "p": 7, "sigma": 16, "t": 2, "r": 2},
        {
            "census.csv": "89a0b994d0995310b64c54a8cf97e96f5c6980bd726b46857a0e3cc6baa48e9e",
            "census.json": "fae6f9d2e1d0ec1377d1b2e1c2185fb11adca0b74f547ab7c6b087ef852784f5",
        },
    ),
    "census-p12-t4": (
        {"task": "digit-census", "p": 12, "sigma": 2, "t": 4, "r": 2},
        {
            "census.csv": "5d9027a18d3df146eae4bdd793f8815eef0ee0ed5c44f107c880c7351d9fb48d",
            "census.json": "5a5b7aed42d7e45c70fdf68382aa2c119e6d0aa7c16c6e42f6b561170145d0dd",
        },
    ),
    # Mixing searches answered past the dense prefix.  Fair
    # {(0, 0), (1, 0), (0, 1)} at p = 201: A = I mixes at n = 12,957 and the
    # general case A = [[1, 1], [0, 2]] at 2,875, both found by the Fourier
    # search.  A = 8 and A = 9 with fair {0, 1} on p = 10,007 and 100,003,
    # on either side of the strided-slice cutoff LINE_CUTOFF = 8.
    "search-unit-root": (
        {
            "task": "mixing-sweep",
            "matrix": [[1, 0], [0, 1]],
            "increments": FAIR_3,
            "p_list": [201],
            "eps": 0.25,
            "n_cap": 10**7,
        },
        {
            "sweep.csv": "e49e7f62327662d2356f5ed2c019d685b13bf2b8d8b1fcad563cd47dcd5ae062",
            "sweep.json": "b43859687653770677f721316b8a38f6154b3d3c2159a0c755e957be1e82bbd6",
        },
    ),
    "search-general": (
        {
            "task": "mixing-sweep",
            "matrix": [[1, 1], [0, 2]],
            "increments": FAIR_3,
            "p_list": [201],
            "eps": 0.25,
            "n_cap": 10**7,
        },
        {
            "sweep.csv": "1697a6d8b2aa5f49317dcdfecd482fed17aeca7379af58dfc67cad4e6a2a5564",
            "sweep.json": "b43859687653770677f721316b8a38f6154b3d3c2159a0c755e957be1e82bbd6",
        },
    ),
    "search-a8": (
        {
            "task": "mixing-sweep",
            "matrix": [[8]],
            "increments": FAIR_1D,
            "p_list": [10007, 100003],
        },
        {
            "sweep.csv": "be76944db24d2a2d2ede54c8b75928c56648cca482927ad6a197b5ab194db4c9",
            "sweep.json": "d8c8da53fe3f34283687f5452a9d697a6538032f1c7a121bbdfdad7ffeb8e1ca",
        },
    ),
    "search-a9": (
        {
            "task": "mixing-sweep",
            "matrix": [[9]],
            "increments": FAIR_1D,
            "p_list": [10007, 100003],
        },
        {
            "sweep.csv": "9d3ac2ab9c46227edb55d81fc13d9635bc14f62235dd21aedcd57ef61bda4416",
            "sweep.json": "d8c8da53fe3f34283687f5452a9d697a6538032f1c7a121bbdfdad7ffeb8e1ca",
        },
    ),
    # The benchmark's traffic: the CLI tasks of its sweep-slow, sweep-fast,
    # field-2d and exact-lab workloads at seeds 1, 2 and 3, written out
    # literally so that a change to the benchmark moves no pin.
    # A config pinned once is not repeated: exact-lab's seed-1 classify and
    # verify-identities are lab-classify and lab-identities above, and
    # field-2d's bounds and exact-lab's digit-census draw the same modulus
    # at seeds 1 and 2.
    "sweep-slow-1.mixing-sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[1]],
            "increments": FAIR_1D,
            "p_list": [103, 153, 197, 249],
        },
        {
            "sweep.csv": "ec1f75b834750e724ac46daf0861dc57af1d851e6fce3aec8f1a9c98d6ec7950",
            "sweep.json": "a3ca2cd197ae05383da9871189e5f4564e05489bd074ece3fd0deb9c8cf48740",
        },
    ),
    "sweep-slow-2.mixing-sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[1]],
            "increments": FAIR_1D,
            "p_list": [103, 147, 205, 249],
        },
        {
            "sweep.csv": "80a9cc832ee407c6bd9bfe1c7874dd5c902d29c426e515069bc3c12812321ffe",
            "sweep.json": "fbb01cbf779b5a5de7eb39dd670a390fa3485a1d2bed1651254fd28572d55f7f",
        },
    ),
    "sweep-slow-3.mixing-sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[1]],
            "increments": FAIR_1D,
            "p_list": [101, 155, 201, 255],
        },
        {
            "sweep.csv": "27e693146d1d13a4b407cae12ca41015ad087bbfe90b75c3a25b3de7fbf5d879",
            "sweep.json": "e3c338cc4f755672a0cdad62834487dbd6d34095014f30ecf61fd37cde5f457a",
        },
    ),
    "sweep-fast-1.mixing-sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": FAIR_1D,
            "p_list": [9997, 30003, 100053, 299713, 999783, 3000959],
        },
        {
            "sweep.csv": "12b1ccaab257d3fd4905d2c12b09bba95983fbbd3d068300a8c85274e0db5a4c",
            "sweep.json": "f712cfec4d4805c749f99fa8952303e61b41137d9f4eca1f305c535183ef66e3",
        },
    ),
    "sweep-fast-2.mixing-sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": FAIR_1D,
            "p_list": [10001, 29999, 99905, 299973, 1000087, 2999807],
        },
        {
            "sweep.csv": "856a908887288911b8bd9367dc01ffe49081bbeb78ea6852d41d551f4b053c68",
            "sweep.json": "7e46f3d95de4d384f738697ee93eb698bc82c6f1b5cdb21d082289c5123c009a",
        },
    ),
    "sweep-fast-3.mixing-sweep": (
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": FAIR_1D,
            "p_list": [9999, 30011, 100011, 300279, 999763, 2998783],
        },
        {
            "sweep.csv": "e3c080f8380261313b97e631d7ae283e851edb9d8f4e06cc4f41033970416e1e",
            "sweep.json": "47715d4edd299328c44e842d48ff2cdf300505fc5244ddf4c0e6f539581a87be",
        },
    ),
    "field-2d-1.bounds": (
        {"task": "bounds", "matrix": [[2, 1], [1, 1]], "increments": FAIR_2D, "p": 705, "n": 40},
        {
            "bounds.csv": "8c12e2b71d50c2552cdf649d8568340bdb32969b7d23a50faa1d7dc3f9e7df96",
            "bounds.json": "047c9e4453efb3df4acc179a71a28f3ddebd7b4176468317d9e99a43c7ca9d9b",
        },
    ),
    "field-2d-1.evolve": (
        {
            "task": "evolve",
            "matrix": [[2, 1], [1, 1]],
            "increments": FAIR_2D,
            "p": 705,
            "n": 30,
            "trials": 2000,
            "seed": 1370509058,
        },
        {
            "evolve.csv": "8af8be914d79f4221a09baf641714cd0964b5ac33cbdde677eeda03bd58d8bdc",
            "evolve.json": "6e58bab2f971c06710dc08685618933cce5b4ec534b4c0eb4b99e812f037ced2",
        },
    ),
    "field-2d-2.evolve": (
        {
            "task": "evolve",
            "matrix": [[2, 1], [1, 1]],
            "increments": FAIR_2D,
            "p": 705,
            "n": 30,
            "trials": 2000,
            "seed": 101934351,
        },
        {
            "evolve.csv": "8af8be914d79f4221a09baf641714cd0964b5ac33cbdde677eeda03bd58d8bdc",
            "evolve.json": "373319edfd85ca776c921e09cf6eb334685e2eb1ce3ed0dcbcf15fa51ff95493",
        },
    ),
    "field-2d-3.bounds": (
        {"task": "bounds", "matrix": [[2, 1], [1, 1]], "increments": FAIR_2D, "p": 703, "n": 40},
        {
            "bounds.csv": "000905920602b892e1cd91044d9b26d7b78bb2e1f067bde0f592bcaa95eda821",
            "bounds.json": "f42f700d29ac5cc99239ce348e3f0a762da060b38a568601189bef27b3967b76",
        },
    ),
    "field-2d-3.evolve": (
        {
            "task": "evolve",
            "matrix": [[2, 1], [1, 1]],
            "increments": FAIR_2D,
            "p": 703,
            "n": 30,
            "trials": 2000,
            "seed": 774876515,
        },
        {
            "evolve.csv": "0974f87bd47ad5c807ae411add2b8c1606a1db6eef32ff8dcd694d30888b3acc",
            "evolve.json": "e408fb7234cc2a6d38668049de744d7d783996974a63b7e485b066a751141e86",
        },
    ),
    "exact-lab-1.digit-census": (
        {"task": "digit-census", "p": 30031, "sigma": 2, "r": 2},
        {
            "census.csv": "92967f99931d2266139000d38af3a59f2172286372ed58a556166073fcf7673b",
            "census.json": "361376f371aa7930f80921113a77eb7c7356c89b0249ce06398e0794f8c6bc0a",
        },
    ),
    "exact-lab-2.classify": (
        {
            "task": "classify",
            "matrix": [
                [10000255, 1, -1, 10000255],
                [-8519, 9991735, -19983466, 19974945],
                [0, 0, 1, -1],
                [0, 0, -1, 2],
            ],
        },
        {
            "classify.json": "5fe424cb0c2f6bfd5134888f0dbcac2bf60cc226e9806a92e9dae4d3942180f9",
        },
    ),
    "exact-lab-2.verify-identities": (
        {
            "task": "verify-identities",
            "matrix": [
                [-4, 0, 0, 0, 5, 0],
                [34, 7, -10, 34, 14, -10],
                [11, 0, 2, 11, 33, -11],
                [17, 0, 0, 13, 17, 6],
                [0, 0, 0, 0, -9, 0],
                [0, 0, 0, 0, 0, 19],
            ],
        },
        {
            "identities.csv": "1f937c36e8c02af1517f984a786b62450b7858f94ed1a0c83ebbd9864d9577b8",
            "identities.json": "d5ffb6bda032e684c10ccd1d21ac5d52ce0389a813c5f6efbfe683f54cd466b7",
        },
    ),
    "exact-lab-3.classify": (
        {
            "task": "classify",
            "matrix": [
                [10003739, 0, -1, 0],
                [-10003737, 4, -9993711, 1],
                [0, 0, 9993716, 0],
                [20007475, -5, -7, -1],
            ],
        },
        {
            "classify.json": "d07230c70e9dfd050c47c1b0cb628c2f34ed4e846ffe9c1f89c23c732f9ca540",
        },
    ),
    "exact-lab-3.verify-identities": (
        {
            "task": "verify-identities",
            "matrix": [
                [13, 6, 0, 0, 17, -17],
                [0, 19, 0, 0, 0, 0],
                [34, -10, 7, 10, 14, -34],
                [-11, 11, 0, 2, -33, 11],
                [0, 0, 0, 0, -9, 0],
                [0, 0, 0, 0, -5, -4],
            ],
        },
        {
            "identities.csv": "1f937c36e8c02af1517f984a786b62450b7858f94ed1a0c83ebbd9864d9577b8",
            "identities.json": "0650cc72fe688261148dd1eae2316e06399d6f7b0b79abfe00ee8f0fd1f8440c",
        },
    ),
    "exact-lab-3.digit-census": (
        {"task": "digit-census", "p": 30029, "sigma": 2, "r": 2},
        {
            "census.csv": "885c946513913fe27aac437adc10d2fafd50f4d19eb8fe6a6fbe3b6aff5a37c1",
            "census.json": "2efd67613c3f05e490552f00b28f33f2e81bb94b8735912692c5a45f01dc1ae0",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_outputs_match_pinned_digests(tmp_path, capsys, name):
    config, pinned = PINNED[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([config["task"], "--config", str(path), "--out", str(out)])
    assert code == 0, f"{name}: exit status {code}, {capsys.readouterr().err}"
    written = {file.name: hashlib.sha256(file.read_bytes()).hexdigest() for file in out.iterdir()}
    moved = [
        f"{name}: {file} sha256 {written.get(file)}, pinned {pinned.get(file)}"
        for file in sorted(written.keys() | pinned.keys())
        if written.get(file) != pinned.get(file)
    ]
    assert not moved, "\n".join(moved)

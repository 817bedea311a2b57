"""Certificate and verification records of a builder sweep hash as committed.

A change of factorization (a QR that forms Q differently, say) can move a
recorded distance by an ulp without failing any tolerance, so this test pins
the record bytes themselves.  The sweep draws builder vectors for seeds 902,
904 and 908 at N=256, K=16, horizon 96, theta=1.01, p in {2, 1.5, 3, inf, 1}:
on these seeds the certified distances vary (3-12 distinct values per
certificate), and swapping p = 1.5's unpivoted QR for numpy's reduced QR
changes two of the verification digests.  Seeds whose distances all stay
at the rescaled 1.5 (900-903 at N=128, K=8, for one) would not see it.
p = 1 pins the dual LP's route (6 distinct distances at seeds 904 and 908);
the p in {1, inf} verification digests pin the block-diagonal prefix LPs.

The digests depend on the LAPACK build, so the test runs only when numpy's
BLAS is the scipy-openblas wheel build they were taken with.
"""

import hashlib
import math

import numpy as np
import pytest

import orbitgap as og
from orbitgap import records

try:
    BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
    BLAS = None

DIGESTS = {
    (902, 2.0, "certificate"): "9cce06fb1dddc911200331722f41bda4a33b90efbf2034d1931fda699cd09339",
    (902, 2.0, "verification"): "eb5885e5ff9351ee32b3260b6443d1da75c69c64ad109a7a25649c68e238446b",
    (902, 1.5, "certificate"): "e7370f3ba5b07c07b7b2f388787eb60bbd78fbe6ad878314d5bc51bac4cfb892",
    (902, 1.5, "verification"): "a15220d35a6709ddb6e91aa5dba7d9d7f977c99d35a2800920b0d2266a65bac3",
    (902, 3.0, "certificate"): "f17ddb3e4b9e3d22f8b55cd19e86e267c7eecab0a5b691f8ba81f3231e866ec7",
    (902, 3.0, "verification"): "63533faa33395f41b65ff59758cd91b7028541f46a95888a6f521be1ff684c42",
    (902, math.inf, "certificate"): "5c40eb52535a1afc4295be9028bf6dc85377f36401df5da9cd209157b5e3cc96",
    (902, math.inf, "verification"): "b951457627507b0c37453af5b5d15e3ea72d3d62a801a3d44f06a270fe92cc9e",
    (904, 2.0, "certificate"): "b9a9c202644f77acf14268baba6c667add3df2d0806d52c2ab5076b2737832d2",
    (904, 2.0, "verification"): "3433d0ea41e18fe0a313583707f21fce0507b7b7fba257876acf4c36b0540557",
    (904, 1.5, "certificate"): "9cd931f6110546dfb1f8f7de45a045abacaa62419fd6ab5ef75bcf42beaffc44",
    (904, 1.5, "verification"): "5cc2c51944b49ede4dcf34fad448fdd5e4e815d61f4d8075ee86c2aaa0339cc3",
    (904, 3.0, "certificate"): "543f56b8113ccf95d7b7987ad6247111cf1f683abec608c4aa225c8f48edea3a",
    (904, 3.0, "verification"): "b77d85418669876ae36116ed33847761234a9dd752ac1f936155f05044dc80be",
    (904, math.inf, "certificate"): "c4283a66122df9babecc6bd65c8ce65ac635284623c6d8f3fc841444dc12b446",
    (904, math.inf, "verification"): "13d2d7b41ab98dbb2986c59aca8a77b47f3cd2bd6debb308cb413ee3d43c8332",
    (908, 2.0, "certificate"): "1221d9f1be9d943e45c742212811d1b2d92742a2afb02563408c306827ef6134",
    (908, 2.0, "verification"): "aae40f36ceb9c3cd4e4eba6869770a49f8836d580b3ad6526f3ffc11fdc10e62",
    (908, 1.5, "certificate"): "f57d06268482adbd667437acd1f7dc4d7d874bda7daadd24a1e16808eae83e6c",
    (908, 1.5, "verification"): "5cc2c51944b49ede4dcf34fad448fdd5e4e815d61f4d8075ee86c2aaa0339cc3",
    (908, 3.0, "certificate"): "29b352915542183d3617b2d18f1c01ed41c79e45d6a45a6f2d19ae0182416c4e",
    (908, 3.0, "verification"): "b77d85418669876ae36116ed33847761234a9dd752ac1f936155f05044dc80be",
    (908, math.inf, "certificate"): "9eb6d298400ad18451f6bc569930a93762f8f3c13fdf21a1db03be195e81e405",
    (908, math.inf, "verification"): "b94cb4376511822d597eb99e7174e221318f298c5f390f969d189b298e227d53",
    (902, 1.0, "certificate"): "ec58fd5f789aee703c40e5909f26576d9bd18ea6e13f79ff3ccf381d3a1a50d9",
    (902, 1.0, "verification"): "1136e20c50565d4d330101ab3d397dec0a655a12ffb3a9dcd4bccf25e24ad06c",
    (904, 1.0, "certificate"): "cd633c3371119394acc11a54cc315c6faf7721dc40becf8480a8e6e27b66a8b4",
    (904, 1.0, "verification"): "6e499cf30cb0d4c16e44f05cf65b2d73268dd51410280314067f43858083bc27",
    (908, 1.0, "certificate"): "9078fc952cb1a7ddbc2f390c5800ff95ef31fbc3d316320aa57f03ce06d37c3a",
    (908, 1.0, "verification"): "813c324989ff630952f0dbf0c9871f4032c0e31317a14762ab861b71c8ef519f",
}


def _builder_run(seed, p):
    rng = np.random.default_rng(seed)
    lam = float(rng.choice([1.5, 2.0, 3.0]))
    count = int(rng.integers(6, 11))
    eps = float(rng.choice([1e-3, 1e-4]))
    spec = og.NormSpec(p)
    x = og.build_supercyclic_vector(lam, og.default_target_set(256, count=count, epsilon=eps),
                                    256, spec).x
    T = og.RolewiczMultiple(lam)
    cert = og.extract_subsequence(T, x, og.ExtractionConfig(horizon=96, max_steps=16,
                                                            theta=1.01, norm_spec=spec))
    return cert, og.verify_certificate(cert, T, x)


@pytest.mark.skipif(BLAS != "scipy-openblas", reason=f"digests taken with scipy-openblas, not {BLAS}")
@pytest.mark.parametrize("seed", [902, 904, 908])
@pytest.mark.parametrize("p", [2.0, 1.5, 3.0, math.inf, 1.0], ids=["l2", "p1.5", "p3", "linf", "l1"])
def test_builder_records_hash_as_committed(seed, p):
    cert, report = _builder_run(seed, p)
    assert report.ok
    for kind, record in (("certificate", records.encode_certificate(cert)),
                         ("verification", records.encode_verification(report))):
        digest = hashlib.sha256(records.dumps_record(record)).hexdigest()
        assert digest == DIGESTS[seed, p, kind], (seed, p, kind)

"""Byte identity of ``approximate``, ``modeconnect``, ``verify-null`` and
``norm``: pinned SHA-256 digests of their outputs.

Each ``approximate`` case runs a small width ladder at a fixed seed and
hashes the network JSON, the decay CSV and the report, the report without
its wall time and the paths it echoes.  The ladders cross batch boundaries (streams of 4096 and
8192 neurons) and, in d = 2 and 3, draw several directions, so a change to
the draw or scoring order that moves one bit of one bias or one score
changes a digest.  The d = 1 ladder of cos(2000 x) has too many panels for
a start table of cubics, so its draws start on each panel's line in theta.
The digests hold for one numpy build and one libm: a platform that rounds
the trig functions differently gives other bits.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from radonlab import HarmonicNullTerm, TwoLayerNet, save_network
from radonlab.cli import main
from radonlab.errors import EXIT_PASS

from conftest import random_cosine_terms, write_input

PATH_KEYS = ("spectrum", "out", "csv", "report")

SPECTRA = {
    "d1": (1, [(1.0, [1.3]), (-0.6, [2.1]), (0.4, [3.2])]),
    "d2": (2, [(1.0, [1.0, 0.5]), (0.5, [-0.3, 1.2]), (-0.7, [2.1, -1.4])]),
    "d3": (3, [(0.8, [1.0, 0.2, -0.4]), (-0.5, [0.3, 1.5, 0.7]), (0.6, [-1.1, 0.4, 2.0]), (0.3, [0.0, -2.2, 0.9])]),
    # cos(2000 x): over 2,500 panels, too many for a start table of cubics, so
    # every draw starts on its panel's line in theta
    "d1-many-panels": (1, [(1.0, [2000.0])]),
    # 150 cosines at random frequencies: 300 directions, more than 256, so a
    # draw's sort key leaves fewer bits to each direction's uniforms
    "d3-many-directions": (
        3,
        [(a, xi) for a, xi in zip(np.random.default_rng(35).uniform(-1.0, 1.0, 150).round(3),
                                  np.random.default_rng(36).normal(0.0, 1.5, (150, 3)).round(3))],
    ),
}

CASES = {
    "thm2-d1": ("d1", "1", "thm2", "8,4096,8192"),
    "thm2-d2": ("d2", "1", "thm2", "8,4096,8192"),
    "thm2-d3": ("d3", "1", "thm2", "8,4096,8192"),
    "prop2-d2": ("d2", "0.8", "prop2", "16,256,4096"),
    "thm2-d1-many-panels": ("d1-many-panels", "1", "thm2", "8,4096,8192"),
    "thm2-d3-many-directions": ("d3-many-directions", "1", "thm2", "8,512,2048"),
    "prop2-d3-many-directions": ("d3-many-directions", "0.8", "prop2", "16,512,2048"),
}

DIGESTS = {
    "thm2-d1": {
        "net": "dc73a2eefcd1af35f83de61c89e37f3d0ea4aa83c6e4f23a5d6cda1da161be92",
        "csv": "a535c14e2242b2d9987800bf4693b60b486e13aa632200eb970834fc13a29e94",
        "report": "8e4c6cdad462bcd7184e439574eb9cd3146c446989d0ea8934ac0224d703dc76",
    },
    "thm2-d2": {
        "net": "175bfa70f4d65b8e1d12db432ee6ca97f2ad867964ef149b32e504f3bdcddffa",
        "csv": "3803e8011809a4ad8f860b8edf32a8508e7781327ad81755d6f4029115ccb9cf",
        "report": "b8ac32be77cd59ce199a16b254607ead83c00b6ada8b317c2521a6bb21ca2bd0",
    },
    "thm2-d3": {
        "net": "989c2b7c783a26e3bff1eb16be1459990db1275c15b8e1b0b680da18616adede",
        "csv": "739dc193648f817c11032293c1b036542e656b732902f1664c32f7cc2659de4f",
        "report": "9ce74a3c03ac20a6e311092c86579fb6488277866b8478af644d65b0b37a7f89",
    },
    "prop2-d2": {
        "net": "824683881b96d4fa0d2f660c7009e19ede3231b581c141119e092b119d5bf9ed",
        "csv": "d9b47ffdbc55e1126f19e8062916f4b7f34bb6a95c12008f962c69f1bd3bd5ba",
        "report": "bc4375ad7eeb8e19b4bfbbb27de5a3c3a2ca949b99471a52ae4e992a45a86117",
    },
    "thm2-d1-many-panels": {
        "net": "378ab127223b93cba820155a8d12afc3f222b4ad7b36ac45fc9315394cc2ae88",
        "csv": "b5d6fd57af7c25538b51b5b143c581f5d5d6ed23f090e0a7a7409b40fad7afb2",
        "report": "b02ac959e870352e8d853af26674b823aefbd81b9faa8d89dc2104ad14197fc2",
    },
    "thm2-d3-many-directions": {
        "net": "a2e4f522b7a8cfa1814eb0bff1a782e97904d3a5fa9ce6303d9a59f65f35266d",
        "csv": "183a0c479cba8db1cd7fa7724aaf9658ff3eb52194ba2dd674781c42d7e51b35",
        "report": "b7befa6dddf4860d0cdcaac197552cabcf86953b81ed50d1c7d114134466a2e8",
    },
    "prop2-d3-many-directions": {
        "net": "d9251517538c55b844d60499f38a1004cd06b662153d9a09004d1ce7071ad9ce",
        "csv": "92afb38d7ac093a93dd66852a18905decc8f122e436e94f16f712fae8178d717",
        "report": "ad518de6276dde23127c5e43d80912ba4eeda8fd6fe4094fdcb9480eca7c8ddc",
    },
}


def output_digests(tmp_path, name: str) -> dict[str, str]:
    key, R, convention, widths = CASES[name]
    spectrum = tmp_path / f"{name}.json"
    write_input(spectrum, *SPECTRA[key])
    paths = {key: tmp_path / f"{name}.{key}" for key in ("net", "csv", "report")}
    code = main([
        "approximate", "--spectrum", str(spectrum), "--R", R, "--n", widths, "--trials", "3",
        "--seed", "11", "--grid", "64", "--convention", convention,
        "--out", str(paths["net"]), "--csv", str(paths["csv"]), "--report", str(paths["report"]),
    ])
    assert code == EXIT_PASS
    report = json.loads(paths["report"].read_text())
    del report["wall_time_s"]
    for key in PATH_KEYS:
        del report["config"][key]
    texts = {key: paths[key].read_bytes() for key in ("net", "csv")}
    texts["report"] = json.dumps(report, indent=2, sort_keys=True).encode()
    return {key: hashlib.sha256(text).hexdigest() for key, text in texts.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_approximate_outputs_keep_their_bits(tmp_path, name):
    assert output_digests(tmp_path, name) == DIGESTS[name]


# Byte identity of the null-term commands: pinned digests of each run's exit
# code and report, the report without its wall time and the paths it echoes.
# The modeconnect cases cover both dimensions, the smallest budget, the
# benchmark's budgets and terms whose sphere factor is raised above the
# budget's share; the s = 0 and negative-scale runs keep their signs.

NULL_TERMS = {
    "d2": HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0),
    "d3": HarmonicNullTerm(k=6, j=4, kprime=2, coeff=0.7, d=3, R=1.5),
    # the budget's sphere share falls short of the exact rule, so it is raised
    "d2-raised": HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0),
    "d3-raised": HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.5, d=3, R=1.0),
    "d2-large-ball": HarmonicNullTerm(k=60, j=2, kprime=40, coeff=2.5, d=2, R=1000.0),
}

MODECONNECT_CASES = {
    "d2-n16": ("d2", ["--n", "16"]),
    "d2-n2000": ("d2", ["--n", "2000"]),
    "d2-n4000": ("d2", ["--n", "4000", "--s", "-2.5", "--grid", "300"]),
    "d2-s0": ("d2", ["--n", "2000", "--s", "0"]),
    "d3-n16": ("d3", ["--n", "16"]),
    "d3-n2000": ("d3", ["--n", "2000"]),
    "d3-n4000": ("d3", ["--n", "4000", "--s", "0.3"]),
    "d2-raised-n2000": ("d2-raised", ["--n", "2000"]),
    "d3-raised-n3000": ("d3-raised", ["--n", "3000"]),
}

VERIFY_NULL_CASES = {
    "d2": ("d2", []),
    "d3-seeded": ("d3", ["--seed", "3", "--grid", "300"]),
    "d3-raised": ("d3-raised", ["--grid", "250"]),
    "d2-large-ball": ("d2-large-ball", ["--seed", "7"]),
}

NULL_DIGESTS = {
    "modeconnect-d2-n16": "473149db546c5d49ebc9c6fdeecc3dc94052d4e4bf7e8521823d570893e8a37f",
    "modeconnect-d2-n2000": "b04c50b308fc660cef5de9c6c8a56497b2c03b17907693e1b00dc9bddab0b101",
    "modeconnect-d2-n4000": "6c83170f5a2f9646aec1c11976151a6bee3d87af934515cc735b2f7503ffc821",
    "modeconnect-d2-raised-n2000": "682b1c6f5d4dbda75f1e9faf2825ad699c50cb0dd2a121700eb8e7f557655932",
    "modeconnect-d2-s0": "c26f2af25acdc30ad6e1732279938675861edc0852018fc3b9d183853515c38d",
    "modeconnect-d3-n16": "d8e16abcc753e177d32ac12ff39dc6b40dfece40a125ae847f34116cfc634e1f",
    "modeconnect-d3-n2000": "f31d1128560234ea78d7036aeaeb170ab60bc7020ca32a7e2fd93a7ed4ec60c8",
    "modeconnect-d3-n4000": "35a90188094311e1fae1da3126c42d10f311f22462fbc9e4ff357bbb9c65b186",
    "modeconnect-d3-raised-n3000": "24acf6ad8c1520a034ed2b0bfe883240cd61ba8763db42b020dfda583397d0a9",
    "verify-null-d2": "d435a758ddf2a13022870115f1f0c27132a380dd89b53ee9f504c21583d4afe5",
    "verify-null-d2-large-ball": "f0ffd709d5e3122a2dce046f38d0ac8f2e28c5159ec27e885d4d0a99bba31c8b",
    "verify-null-d3-raised": "60714d8a8b8a9b463509a27b05380dadaea3539a448d3c93e608aa31f6434a00",
    "verify-null-d3-seeded": "af1a199d4d602570bcd365336d683348d4402cfdaf438039a1923b7b83b04d95",
}


def null_report_digest(tmp_path, command: str, term: str, options: list[str]) -> str:
    term_path, out = tmp_path / "term.json", tmp_path / "report.json"
    write_input(term_path, NULL_TERMS[term])
    argv = [command, "--term", str(term_path), "--out", str(out), *options]
    if command == "modeconnect":
        d = NULL_TERMS[term].d
        omegas = np.eye(d)[np.arange(8) % d]
        net_path = tmp_path / "net.json"
        save_network(net_path, TwoLayerNet(d, np.ones(8), omegas, np.linspace(-0.5, 0.5, 8), 8.0, np.zeros(d), 0.0))
        argv += ["--network", str(net_path)]
    code = main(argv)
    report = json.loads(out.read_text())
    del report["wall_time_s"]
    for key in ("out", "term", "network"):
        report["config"].pop(key, None)
    text = json.dumps({"code": code, "report": report}, indent=2, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("name", sorted(MODECONNECT_CASES))
def test_modeconnect_reports_keep_their_bits(tmp_path, name):
    assert null_report_digest(tmp_path, "modeconnect", *MODECONNECT_CASES[name]) == NULL_DIGESTS[f"modeconnect-{name}"]


@pytest.mark.parametrize("name", sorted(VERIFY_NULL_CASES))
def test_verify_null_reports_keep_their_bits(tmp_path, name):
    assert null_report_digest(tmp_path, "verify-null", *VERIFY_NULL_CASES[name]) == NULL_DIGESTS[f"verify-null-{name}"]


# Byte identity of ``norm``: pinned digests of each run's exit code and report,
# the report without its wall time and the paths it echoes.  Besides seeded
# spectra, the cases hold parallel and antiparallel terms, which share
# directions and fold into shared slots, the near-cancelling pair on a small
# and a large ball, a frequency whose roots outnumber the minimum scan, and
# the 300-direction spectrum.

NORM_SPECTRA = {
    **{
        f"seeded-d{d}": (
            d,
            [(round(a, 3), np.round(xi, 3)) for a, xi in random_cosine_terms(np.random.default_rng(40 + d), d, 2 + d, (0.5, 12.0))],
        )
        for d in (1, 2, 3)
    },
    "parallel-d1": (1, [(1.0, [1.5]), (-0.5, [-3.0]), (0.25, [4.5]), (0.7, [-1.5])]),
    "parallel-d2": (2, [(1.0, [1.0, 2.0]), (0.5, [-2.0, -4.0]), (-0.8, [3.0, 6.0]), (0.3, [2.0, -1.0])]),
    "parallel-d3": (3, [(0.6, [1.0, -0.5, 2.0]), (-0.4, [-2.0, 1.0, -4.0]), (0.9, [0.5, 1.5, -1.0])]),
    "near-cancel": (1, [(1.0, [1.0]), (-1.0, [1.01])]),
    "cos1000x": (1, [(1.0, [1000.0])]),
    "d3-many-directions": SPECTRA["d3-many-directions"],
}

NORM_CASES = {
    "seeded-d1": ("seeded-d1", "1.5"),
    "seeded-d2": ("seeded-d2", "1"),
    "seeded-d3": ("seeded-d3", "2"),
    "parallel-d1": ("parallel-d1", "2"),
    "parallel-d2": ("parallel-d2", "1"),
    "parallel-d3": ("parallel-d3", "1.5"),
    "near-cancel-R1": ("near-cancel", "1"),
    "near-cancel-R30": ("near-cancel", "30"),
    "cos1000x": ("cos1000x", "1"),
    "d3-many-directions": ("d3-many-directions", "1"),
}

NORM_DIGESTS = {
    "cos1000x": "c2b23b80516ddf55eaa2b4f706c6dc94fa3a308b9149bf6c3362e9d5c542013f",
    "d3-many-directions": "db6d49c51e7459072b3be2956f5c3c23bb65cb4f5a16fb0b827276028fc3578d",
    "near-cancel-R1": "082621e84dac44f54be9ef1c9f224bff74fcc00338d8179401d3dffcd086d04a",
    "near-cancel-R30": "581a23efc36abe836fc0834e31662ee39e79f16f00352ef6296c01af133d9a8c",
    "parallel-d1": "2c3c3a3e5a337a125fb6e9d23d38e152d6058b9232f23a4daecee8b52540787e",
    "parallel-d2": "22985b4d16f3c184257e20e7198fc4e3169674d075fb4d9ad5a1bfd9b40c364e",
    "parallel-d3": "9c2c85c4b93aab72477b56c4c776a22eab811e57257ce04764629b6dd744630b",
    "seeded-d1": "fef0e08f787f37949159006bbe37cdb341e1a39cd5034764b00ff30124f5c13b",
    "seeded-d2": "75c309bb2d093ab664100f41e5fcdb90b83e08d7dd23a1fe64f31749b4604691",
    "seeded-d3": "ff99971b509aa65f8964032d6e2a15f820d9014af6c5049859df05311419f3bf",
}


def norm_report_digest(tmp_path, spectrum: str, R: str) -> str:
    path, out = tmp_path / "spectrum.json", tmp_path / "report.json"
    write_input(path, *NORM_SPECTRA[spectrum])
    code = main(["norm", "--spectrum", str(path), "--R", R, "--out", str(out)])
    report = json.loads(out.read_text())
    del report["wall_time_s"]
    for key in ("spectrum", "out"):
        del report["config"][key]
    text = json.dumps({"code": code, "report": report}, indent=2, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_norm_reports_keep_their_bits(tmp_path, name):
    assert norm_report_digest(tmp_path, *NORM_CASES[name]) == NORM_DIGESTS[name]

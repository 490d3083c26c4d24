"""Byte identity of the command line: the SHA-256 of each scene's exit code
and stdout, recorded once.  A change meant to keep every report as it is
must keep these; a change that alters a report on purpose re-records the
scenes it alters and says why.  Floating-point output depends on the
interpreter and numpy, so the test runs only on the versions recorded."""

import contextlib
import hashlib
import io
import json
import platform
import warnings

import numpy as np
import pytest

from cornergeo.cli import main

RECORDED_ON = {"python": "3.11.7", "numpy": "2.4.6"}
pytestmark = pytest.mark.skipif(
    {"python": platform.python_version(), "numpy": np.__version__} != RECORDED_ON,
    reason=f"digests recorded on {RECORDED_ON}",
)

ALL_SUITES = "axioms,corner,frame,forms,classify,twins,deform"
# the scene blocks of the config files, each run with 12 samples
CONFIGS = {
    "sigma": {"family": {"tau": "exp(x1*x2 + x3)", "kappa": "1 + x2^2", "mu": "1 + x3"}},
    "parse-error": {"family": {"tau": "exp(x1", "kappa": "1", "mu": "1"}},
    "tau-le-0": {"family": {"tau": "x1 - 2", "kappa": "1", "mu": "1"}},
    "degenerate": {"family": {"tau": "2", "kappa": "1", "mu": "1"}},
    # alpha and beta are NaN: the metric is infinite
    "infinite-g22": {"structure": {
        "phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]], "xi": [1, 0, 0], "eta": [1, 0, 0],
        "g": [[1, 0, 0], [0, "exp(1000)", 0], [0, 0, 1]],
    }},
    # min_sigma_gap is NaN
    "infinite-kappa": {"family": {"tau": "exp(x2)", "kappa": "exp(x3)*1e400", "mu": "1"}},
    "box-family": {
        "family": {"tau": "exp(x1*x3 + x2)", "kappa": "1 + x3^2", "mu": "2 + x2*x3"},
        "box": [[0.2, 1.5], [0.1, 0.8], [0.3, 1.2]],
    },
    # the third component of eta does not parse
    "parse-error-eta": {"structure": {
        "phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]], "xi": [1, 0, 0], "eta": [1, 0, "x1+"],
        "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }},
    # the V-twin is Kenmotsu at the scene's tolerance, not at 1e-6
    "twin-tolerance": {
        "family": {"tau": "exp(x2)", "kappa": "1", "mu": "exp(1.00001*x2)"},
        "tolerances": {"classification": 0.001},
    },
}

SCENES = {
    **{f"check-{p}": ["check", "--preset", f"family:{p}", "--samples", "30"] for p in "ABCD"},
    **{
        f"check-all-{p}": ["check", "--preset", f"family:{p}", "--samples", "12",
                           "--suites", ALL_SUITES]
        for p in "ABCD"
    },
    **{f"classify-{p}": ["classify", "--preset", f"family:{p}", "--samples", "20"] for p in "ABCD"},
    **{f"twin-{p}": ["twin", "--preset", f"family:{p}", "--samples", "15"] for p in "ABCD"},
    **{f"deform-{p}": ["deform", "--preset", f"family:{p}", "--samples", "15"] for p in "ABCD"},
    **{f"scan-{p}": ["scan", "--preset", f"family:{p}", "--samples", "10"] for p in "ABCD"},
    "twin-v-D": ["twin", "--preset", "family:D", "--samples", "15", "--kind", "v"],
    "twin-phi_v-D": ["twin", "--preset", "family:D", "--samples", "15", "--kind", "phi_v"],
    "deform-sin-D": ["deform", "--preset", "family:D", "--samples", "15", "--f", "2 + sin(x1)"],
    "deform-exp-B": ["deform", "--preset", "family:B", "--samples", "15", "--f", "exp(x2)"],
    "deform-product-A": ["deform", "--preset", "family:A", "--samples", "15",
                         "--f", "1 + x1*x3"],
    **{f"scan-seed-{seed}": ["scan", "--samples", "10", "--seed", str(seed), "--draws", "6"]
       for seed in range(3)},
    "family-sigma-check": ["check", "--config", "sigma"],
    "parse-error-f": ["deform", "--preset", "family:A", "--f", "2 +"],
    "parse-error-tau": ["check", "--config", "parse-error"],
    "parse-error-eta": ["check", "--config", "parse-error-eta"],
    "twin-v-tolerance": ["twin", "--config", "twin-tolerance", "--kind", "v"],
    "tau-le-0": ["check", "--config", "tau-le-0"],
    "f-le-0": ["deform", "--preset", "family:A", "--f", "x1 - 2"],
    "degenerate": ["check", "--config", "degenerate"],
    "non-finite-alpha": ["classify", "--config", "infinite-g22"],
    "non-finite-sigma-gap": ["scan", "--config", "infinite-kappa"],
    "scan-box-family": ["scan", "--config", "box-family", "--draws", "5"],
    # 404 members of 3 points: a pass of at most 1,024 points ends inside the draws
    "scan-400-draws": ["scan", "--draws", "400", "--samples", "3"],
}

# sha256 of f"{exit code}\n{stdout}" per scene, on the versions above
DIGESTS = {
    "check-A": "62e870b7c549c91798ca16647757d64ad4c334a393ad847ae9515eb62a99264e",
    "check-B": "9b2ca73d51108ec80757d4e87f221c7842ed6fef6f9b7b073289b1ed28b4ebf4",
    "check-C": "ab81ee099652a2d67cf9cfa5adf9c6532ac08781ba3b591b3888a6f9b409e3e8",
    "check-D": "553e3cb840db2fd370d8243ed4167852e4d3b059ccdd3e77786f0f2f19869186",
    "check-all-A": "87cb4febe559234f9bfdd8efed16ac8a01adfe4217cde71009fee4fb7f11bd8b",
    "check-all-B": "a2e0a450c86b420c92ce4ee2e3fb8250f62bb8859dc5306b307d18ce554aec3b",
    "check-all-C": "dc982f5b846c6d5fe96106ae26ae06e3cf5071b11b258613e0ce5e2144249b5b",
    "check-all-D": "ab798f777a1c08f301dc38d1e9172c0d578373fd1a4f00e285b497a83bef6fea",
    "classify-A": "e1be0729bf3545099a57b7f9dc2f30f08855f5170efc908502b5992cbefb7121",
    "classify-B": "df6c6aafec0710bd4b1ab37c52f50891545763723a0e0362aa5322653e6a3439",
    "classify-C": "9672ea1907bd08b6956653d41ed038f513c9b21fd008f54421a4590ed63b352d",
    "classify-D": "228bb3fe8c5d91c95dd2e43e65ebd84d5295c1fd30b12f58bf7d1680e460d3b7",
    "deform-A": "0c703730df22e6f7d0bc4b93cec78d132e15d507394d70cc19be8626554461eb",
    "deform-B": "763aaf5c6146cc91a4373f584e103b529f412814e4f74666f5f2a579c579169f",
    "deform-C": "f35a0db4f86f24b63713e6de72a16893599075d29467954d9792ce9ee4daa667",
    "deform-D": "2e7778bdb4fbc5d92b0a197e116a14475c9db1134bbf2319c3b375adc1dc02e6",
    "deform-exp-B": "5d8a368f97a332bb3240a1df132928d7545235adb153280eea478edd29ebfd72",
    "deform-product-A": "1624a25d4ecf535466fa23000e212cc25efe651d4fb282d2876576a0a7edee50",
    "deform-sin-D": "05e15e990fd6e57e5862513792d5ae78bda02e3bba940268a5b3ce90e5dc82ff",
    "degenerate": "946dabe965ec6808417dc84a13cc3755655caca56f7146cf75bccdbfdf0df4a0",
    "f-le-0": "eb52d7b012b1822cfda0557360c45b3d7f36e43f3a0eae72e707bde9d232dd55",
    "family-sigma-check": "950c3b1994423606e671301a0b4cdee9b4889b06b585e7a666bfa6ec3d0559db",
    "non-finite-alpha": "9530d50b21b765bfb0987f6744e4e3608952d90fe3bff4abf04210316d64ec99",
    "non-finite-sigma-gap": "6ace9fb7d98f87c46330234f5b8e6358fe36918b94f3f6d064d3d3449958cf2f",
    "parse-error-f": "4648c435d701140e48ecc21468f232bce266d3f2a07778e91c7180fe7d0a98fa",
    "parse-error-eta": "fcd4144498a7562c4e78309bce374209f82404abdbcb5cc1065bbbfefca3655a",
    "parse-error-tau": "8f82613d8d01835b7724872a4be03b023993f011da32af7b41d5ab8999e0225a",
    "scan-A": "553272c3921df05008a6c2f9235d990c4e8a782de2cf584e68a80417d5e3bdd9",
    "scan-B": "8119706546754751f2184757df54f7f025a51ffc617e211500cf2f1b1d6d5619",
    "scan-C": "57bc069ba6242d9f2189813663ee0e5ef9dc6691ba093e1f104387f8bfff11a8",
    "scan-D": "caf990f96c7e795b5ac19fd1922a169ea4e0755c4d2f4bb65d919dda9c3c3621",
    "scan-400-draws": "a60913877ca95f029d7ff56f28b13355da347690b49e24542b4d697b014dc6f5",
    "scan-box-family": "46bc02e8a00798af75ff4c91864d68a17d5efd735d3c3302259770898ab3f993",
    "scan-seed-0": "e711c59df8d6e779d51acd5a7ef06eda37670885da3e502d71d748817564364b",
    "scan-seed-1": "1576687e54611c9239699d56e624e9b350c3dd76532dfd43fd083d3c283d3945",
    "scan-seed-2": "fb665f4cb67a7d7921f1da4f82ad8b95ec348249c3be184b98468112c088c286",
    "tau-le-0": "423b088048cce9005ec3aed91f42c0f8a81312318e6c45326acd274975d67478",
    "twin-A": "83959bcc3854a90c5fbcc55128692720d81b7651cdf2d77b82715fcdf2065526",
    "twin-B": "76923c32e5fe6538f801f3607cf6ac45464d2464917b87f8b232fcdf8c324647",
    "twin-C": "5da05460cd6db6751ffc0ccae64998761dba0cdfb92e877be463216efb77f85c",
    "twin-D": "275afc5441447b06df484344840b5438a2062228154ecd96b598b68349ffc27a",
    "twin-phi_v-D": "f4e2945bd4c7ec138f926bc3770883c98a3a31f6a95df4cfa2216e9fdab9b1ba",
    "twin-v-D": "f59432e22782dce05b4376cb362c582beae6fa2a7748d4910ceca53511eb6642",
    "twin-v-tolerance": "5be0d9677a93af3d0ced59b733b0e7548a6cf58b196edc72a3eb7b8e4e848c24",
}


def run_scene(argv, tmp_path) -> str:
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        path = tmp_path / f"{argv[i]}.json"
        path.write_text(json.dumps({**CONFIGS[argv[i]], "samples": 12}))
        argv[i] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENES))
def test_scene_output_is_unchanged(name, tmp_path):
    assert run_scene(SCENES[name], tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    # print every scene's digest as a DIGESTS entry, marking those that differ
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENES):
            digest = run_scene(SCENES[name], pathlib.Path(tmp))
            mark = "" if DIGESTS.get(name) == digest else "  # differs"
            print(f'    "{name}": "{digest}",{mark}')

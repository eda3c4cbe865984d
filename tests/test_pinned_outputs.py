"""Byte pins of the audit reports and of `info`, across limits and tiers.

The sha256 digests below were taken from the code as it stood before
the ground truth became one record and the claims one table; a change
that alters any of these bytes changes what users see. The default
config on [2, 512] repeats the digests bench/checks.py pins; the small
limits on [2, 120] reach the skip, mixed-tier and closed-form paths the
default config never takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from indegraph import cli
from indegraph.audit import AuditConfig, render_report, sweep


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ALL_LIMITS_8 = dict(oracle_build_limit=8, exact_search_limit=8, hamiltonian_limit=8)
SEARCH_LIMITS_8 = dict(exact_search_limit=8, hamiltonian_limit=8)

REPORTS = {
    "default": (2, 512, AuditConfig(), {
        "md": "12f39ac4ea98ccc91da48da76d4f16e213130c127cd9a1d766509a618c476f53",
        "json": "ac8eabc8e7d2684d48764304e735cf8e57fa6a105a98078cd9281f828b7f89da",
        "csv": "56e002afb337ab2df7d463dca8f81009f8189813050df109dfeeffc84b3e3129",
    }),
    "all-limits-8": (2, 120, AuditConfig(**ALL_LIMITS_8), {
        "md": "8f1c26b73d1612a412b234cfe388f4f0dadbed517c28980f3c3b2f79242bb266",
        "json": "ee9542ff1831d45b88c43772e9c97bb45d9f8d2b57d18e32c21e09ba0bba5aed",
        "csv": "fa369396be62abecb98921f05f555bde70cfa2dda1373303a1119b57e619e436",
    }),
    "all-limits-8-no-fallback": (
        2, 120, AuditConfig(**ALL_LIMITS_8, closed_form_fallback=False), {
            "md": "61eef92b7a055faef8db60475bd699c3afa7fbf89c11b897db67838af59c0a3b",
            "json": "70f111de10f6f0541a5bf441d652f36f0800bffea45fe6cc10f2481480bcadcd",
            "csv": "798ef7278facab9e501e3159c9600c5084fe889701057bb05592b7e5a4a43c36",
        }),
    "search-limits-8": (2, 120, AuditConfig(**SEARCH_LIMITS_8), {
        "md": "3a03d935641c88b4a495861db930f76c99df1000c4da1b47089861917f3f4814",
        "json": "2ca7d1143f965b40853feaaf7a75c6d5775d844387d9423a8faf04a77bc097cc",
        "csv": "234bf6f80802d88b0f32929ea36e4fc665a997d8052122d7837370054b1a6651",
    }),
    "search-limits-8-no-fallback": (
        2, 120, AuditConfig(**SEARCH_LIMITS_8, closed_form_fallback=False), {
            "md": "72e1023941414fa1f5b46ec043cd20cfb11957276855fb02a9769745f9309ce3",
            "json": "01358bf3b8dbdf67eddbc463088e5aef0cd5ac78b77ea9977ece9f3267d76e95",
            "csv": "4038bd5ccbd055f3c060219cac013445bf0b064fe5e4c68f333092b723f25e4d",
        }),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_bytes_are_pinned(name):
    lo, hi, config, digests = REPORTS[name]
    report = sweep(lo, hi, config)
    got = {fmt: digest(render_report(report, fmt)) for fmt in digests}
    assert got == digests


# (argv, exit code, sha256 of stdout)
INFO_OUTPUTS = (
    ("info 2", 0, "b248f36478589eb63aabed96244bf904695f6d2f05641c05ad95554822cab888"),
    ("info 2 --json", 0, "88778419c50e1702c1aed97c9a9e7868ed2582bdfb66954f03ce36188dc14e6d"),
    ("info 2 --verify", 0, "20a06dc256e6a6923d6cd5de8e116756c8a19d9fe253e03d4dc6aa72a7774ccf"),
    ("info 2 --verify --json", 0,
     "aa49d50ce2a5b1837b4fa27f1249cb4f44e817699c4c22fab8f3f2aaa9a072f4"),
    ("info 5", 0, "f734d5d60d398bbac1b91b66647f25b050ac96cf08243839cc6f18bc90c2b830"),
    ("info 5 --json", 0, "d09558ade40299f9922ffc2370f6c08ae56c73816e36b461f5010e1f127832d1"),
    ("info 5 --verify", 0, "c3cd4b2797bd1b983110768e33b8081fcf967169c6751fecd5419a5e0a22d45a"),
    ("info 5 --verify --json", 0,
     "051284512a4d235a99fa2ab063b5f80203d9e2b4ebb7eb9947203313e2d16d9b"),
    ("info 6", 0, "27feaef5745443030f301a1b84d335dfefb13767d6fe11301d1dca281a879193"),
    ("info 6 --json", 0, "c1d78c1333662afb06c13a2a04b4fba3b0d08deab3cd0f943a9cd95b101f5033"),
    ("info 6 --verify", 0, "648e6c9d817a3f3be4b2d84840c4e36f26dafd5bb59d39706c05659337ef0c36"),
    ("info 6 --verify --json", 0,
     "b5d1ed8737a8e3e4d3b629c19b2027408d4c7ef070c91bef2def3e53da870b9e"),
    ("info 12", 0, "082f8030fe2c51ece17b5b125f7c660ccfcbf7b0a8d29073835103b58e24e4e1"),
    ("info 12 --json", 0, "1988dfcc9af71452d999775e32c567f28667ae64a54292aeb576ef1a8aca7998"),
    ("info 12 --verify", 0, "c11e2eab9ed35f5241b16d401d9a288499b0d55d7416550f670f0050ba293c84"),
    ("info 12 --verify --json", 0,
     "f7cf960cd89bd350e13c4b331bb70f20a26d27c7589314633b14b5eec9ca714a"),
    ("info 30", 0, "df8cbd29821df1494b243f037ce860c2ed5fa4cb2f659f3d34a49153413dd3a4"),
    ("info 30 --json", 0, "a42ce4006040f0a63c69b8addeb7c1b2d0db63fc2c4a55be58b55186172240eb"),
    ("info 30 --verify", 0, "26ddb4090e9843a3f4ae1861b17d4b9fd1db5a566c8c9ab3f2c4a39b930c0b01"),
    ("info 30 --verify --json", 0,
     "c5e5a6c83738afc166a3ac4174c63e8e3c146580f40445ce113e0c2513a398c8"),
    ("info 120", 0, "17c68c6ca35fea60bf4443acc54be6cef82e2416bd9f6b470b8ecf90ca366707"),
    ("info 120 --json", 0, "d3427f77fef6993ae13346070caf8ce0014709d91f9a0c5e4b3f2fecce1f9a7f"),
    ("info 120 --verify", 0, "51db9a208799fb31adbfaa2a4f41cfa744506eb281ea0af61e0bbc8131771eaa"),
    ("info 120 --verify --json", 0,
     "1aeee9510277c52366b58e9db2ad885a4a61eeb5f3f98c24d4277f23b0d3e240"),
    ("info 720720", 0, "7b4490007900c7d3fcd0f8dce581146b7961d933a15ec2ce9784af2f7affdc27"),
    ("info 720720 --json", 0,
     "0f80edf588b25ee2f4996bedbf6fac826ba71a35e918501fb802e6846d57a9a1"),
    ("info 720720 --verify", 0,
     "cc85958472937b0bb3377d4efe1a9af88157d625c47076cd7372cf40d5662bcb"),
    ("info 720720 --verify --json", 0,
     "9e6ab6da7b5c5f70b33dd05e21c8b291c46a0052ef9eb283cdebf4677c54ec7c"),
    ("--oracle-limit 10 info 50 --verify", 0,
     "169563bef21de7093bfadbc5f8b5e5ecd69ca1bb7bf76829429218684b541908"),
)


@pytest.mark.parametrize("argv, code, stdout_digest", INFO_OUTPUTS)
def test_info_output_is_pinned(argv, code, stdout_digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv.split())
    assert (got, digest(out.getvalue())) == (code, stdout_digest)

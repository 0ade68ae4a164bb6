"""The golden corpus: every subcommand, format and block edge, by argv.

Each call runs ``qtf.cli.main`` in process, in a directory that holds
its inputs, so that every input is named relative to the working
directory and no report or error line holds a machine path.  The
tables map each argv to the SHA-256 of its stdout, its stderr and its
exit code.  A refactor must leave all three unchanged.

The calls reach what the 228-track goldens of ``tests/test_cli.py``
do not:

* ``simulate`` populations on both sides of ``qtf.rng.DRAW_BLOCK``
  (8192 tracks), which is also the block of the censor gather, and at
  2e5 tracks: lognormal ones, and uniform ones up to 24577 tracks;
* ``analyze`` of a radius file over 2 MiB, where every kind of row the
  parser skips or drops sits on both sides of each 1 MiB edge of the
  decoded text;
* accrual runs that collapse at the first step, at the last step and
  never, and a sweep that mixes them;
* ``budget`` with each flag off its default;
* one failing call per kind of error.  A call whose error line quotes
  an operating-system message (an unreadable input, an unwritable
  ``--out``) is left out: that text differs by platform.

The reports of lognormal populations (``SIMULATED``) depend on the C
library's ``log``, ``exp`` and ``cos``.  ``tests/test_dispatch.py`` does
not rerun them: under its glibc setting, glibc 2.36's non-FMA ``cos``
differs by an ulp from the FMA one on some inputs, enough to move radii
of the 8191-track population in the csv and json reports.  A uniform
draw (``UNIFORM``) calls no C library function, only splitmix64's
integer steps and IEEE ``+`` and ``*``, so ``tests/test_dispatch.py``
reruns those reports.
"""

import contextlib
import hashlib
import io
import json

import pytest

from qtf.cli import main

MIB = 2**20

# Every kind of row that parse_dataset skips or drops, or that splits a
# line, in the order it is written.  The file's own header and BOM lead
# it; inside the file a header or a BOM is a non-numeric row.
SKIPPED_ROWS = [
    "radius_mm",    # header text: a non-numeric row
    "\ufeff7.5",    # byte-order mark
    "# comment",
    "",             # blank
    "7.25\r",       # \r\n line end
    "6.5\r7.75",    # a bare \r splits a line
    "5.5\x0b8.5",   # so does a vertical tab
    "nan",
    "-inf",
    "0",            # zero
    "-3.5",         # negative
    "1_5",          # digit-group underscore
]


def _radius_row(i: int) -> str:
    return repr(0.5 + (i * 0.6180339887498949) % 20.0)


def radius_file() -> str:
    """About 2 MiB of radii in mm, with ``SKIPPED_ROWS`` written just
    before and just after each 1 MiB edge, counted in characters."""
    group = "\n".join(SKIPPED_ROWS) + "\n"
    parts = ["\ufeff# synthetic radii (mm)\nradius_mm\n"]
    size = len(parts[0])
    i = 0
    for edge in (MIB, 2 * MIB):
        while size + len(group) + 32 < edge:
            row = _radius_row(i) + "\n"
            parts.append(row)
            size += len(row)
            i += 1
        gap = edge - size - len(group)
        # a row of exactly the gap, so that the group ends on the edge
        parts.append("7." + "0" * (gap - 3) + "\n" + group + group)
        size += gap + 2 * len(group)
    parts.extend(_radius_row(j) + "\n" for j in range(i, i + 1000))
    return "".join(parts)


POPULATION = {
    "seed": 7,
    "distribution": {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3},
    "momentum_source": "derived",
    "floor_n": 5e12,
}
SIZES = [8191, 8192, 8193, 3 * 8192 + 1, 200_000]
UNIFORM_POPULATION = {
    **POPULATION,
    "distribution": {"kind": "uniform", "lo_m": 1e-3, "hi_m": 2e-2},
}
UNIFORM_SIZES = SIZES[:-1]
ACCRUAL = {"cost_rate_w": 1.0, "time_step_s": 0.1, "max_time_s": 1.0}
CONFIGS = {
    **{
        f"{mode}-{n}.json": {"mode": mode, "n_tracks": n, **POPULATION}
        for mode in ("tracks", "censor")
        for n in SIZES
    },
    **{
        f"uniform-{mode}-{n}.json": {"mode": mode, "n_tracks": n, **UNIFORM_POPULATION}
        for mode in ("tracks", "censor")
        for n in UNIFORM_SIZES
    },
    "accrual-first.json": {"mode": "accrual", **ACCRUAL, "initial_budget_j": 0.0,
                           "budget_rate_w": 0.0},
    "accrual-last.json": {"mode": "accrual", **ACCRUAL, "initial_budget_j": 0.95,
                          "budget_rate_w": 0.0},
    "accrual-never.json": {"mode": "accrual", **ACCRUAL, "initial_budget_j": 1.0,
                           "budget_rate_w": 2.0},
    "sweep.json": {"mode": "sweep", **ACCRUAL, "initial_budget_j": 0.05,
                   "budget_rates_w": [1.0, 0.0, 0.946, 0.5, 2.0]},
    "censor-all.json": {"mode": "censor", "n_tracks": 100, **POPULATION, "floor_n": 1e30},
    "unknown-key.json": {"mode": "sweep", **ACCRUAL, "initial_budget_j": 0.05,
                         "budget_rates_w": [0.0], "workers": 2},
    "unknown-mode.json": {"mode": "scan"},
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    (path / "radii.csv").write_text(radius_file(), encoding="utf-8")
    (path / "comments.csv").write_text("radius_mm\n# none\n-1\n", encoding="utf-8")
    (path / "latin1.csv").write_bytes(b"radius_mm\n7.5\xb5\n")
    (path / "truncated.json").write_text('{"mode": "accrual"', encoding="utf-8")
    for name, config in CONFIGS.items():
        (path / name).write_text(json.dumps(config), encoding="utf-8")
    return path


def run_golden(corpus_dir, monkeypatch, argv: tuple[str, ...], expected) -> None:
    monkeypatch.chdir(corpus_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout_sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (stdout_sha, err.getvalue().encode("utf-8"), code) == expected


def _test_id(argv: tuple[str, ...]) -> str:
    return " ".join(argv) or "no-arguments"


def test_radius_file_crosses_two_mib_edges_with_every_skipped_row():
    text = radius_file()
    assert len(text.encode("utf-8")) > 2 * MIB
    group = "\n".join(SKIPPED_ROWS) + "\n"
    for edge in (MIB, 2 * MIB):
        assert text[edge - len(group):edge + len(group)] == group + group


# argv -> (SHA-256 of stdout, stderr, exit code): the reports of drawn
# populations, which depend on the C library's log, exp and cos
SIMULATED = {
    ("simulate", "tracks-8191.json", "--format", "text"): (
        "3b919119f032378d949ebb95d2479c8bca9461f7f7213529054ab6cfc7316981",
        b'', 0),
    ("simulate", "tracks-8191.json", "--format", "csv"): (
        "f30a6db85e9eb2d3a0c9d5646621710cd6a2f77e517c7638576cbeb8bb06431c",
        b'', 0),
    ("simulate", "tracks-8191.json", "--format", "json"): (
        "fc9c0d5bac1ee32a9bfd53a00a124944a04824224bb84b0965ebfdf57d8bdd4b",
        b'', 0),
    ("simulate", "tracks-8192.json", "--format", "text"): (
        "e5ef7a02aabda297598c224af6754ba2458342cb1b5d773b536771c124ab6ff2",
        b'', 0),
    ("simulate", "tracks-8192.json", "--format", "csv"): (
        "24c0ead2bb30b715b2523a1d921637385aefcd0625952d179df0146c4ccddf92",
        b'', 0),
    ("simulate", "tracks-8192.json", "--format", "json"): (
        "d0b27654512d85ae0745a6f429cc1d01e6b6754748dae6fb887fcce2af18e7e6",
        b'', 0),
    ("simulate", "tracks-8193.json", "--format", "text"): (
        "397da406513588dce9ee8dc854d4fbbf8b5f094b4b063c41eedbac9f9976706c",
        b'', 0),
    ("simulate", "tracks-8193.json", "--format", "csv"): (
        "5e508a61cf4b08f464487b93d2d9c43bd350c3c5f948e8983e892fa47efe9d24",
        b'', 0),
    ("simulate", "tracks-8193.json", "--format", "json"): (
        "254aeb39404e8e99855c6628f1c451df93b9005088c1a7d71e94698a9df84056",
        b'', 0),
    ("simulate", "tracks-24577.json", "--format", "text"): (
        "4e1a293f2a9b982eb78bc382043ea8d3585acba5c3eb024f5a7b782cd1a92ba3",
        b'', 0),
    ("simulate", "tracks-24577.json", "--format", "csv"): (
        "fcc62d550e20c0d26b3b3708ccf6956195bc7cb2a6099bd43457668ceb78b36d",
        b'', 0),
    ("simulate", "tracks-24577.json", "--format", "json"): (
        "0eb5609270aa52374afda4c4350155845f6915ec13711fc0db5310f7f439ef27",
        b'', 0),
    ("simulate", "tracks-200000.json", "--format", "text"): (
        "4471db94a79c0d0a8689872c0d6a9e21764a07cfad4131ae73c531d1cdce0166",
        b'', 0),
    ("simulate", "tracks-200000.json", "--format", "csv"): (
        "606f5bd39b7ba921f0393ce3cb6eb9d9010f268b38af0c276d8f576ffe7e1bd7",
        b'', 0),
    ("simulate", "censor-8191.json", "--format", "text"): (
        "20fc2879ae050558ffa25e9d3d233d7e89be62ac819405ab6020180797e725be",
        b'', 0),
    ("simulate", "censor-8191.json", "--format", "csv"): (
        "925cb92568e9fbb5e00d2f95b6697608b19e56f2abf651510906686bcc375215",
        b'', 0),
    ("simulate", "censor-8191.json", "--format", "json"): (
        "9029ea90c06887b0badb72bba1dd0b7489580da875f83e32212853392ca1a136",
        b'', 0),
    ("simulate", "censor-8192.json", "--format", "text"): (
        "28e906262e01dd2f94da15f336091e6fb83c24a09b73294cdcb506df61e2af06",
        b'', 0),
    ("simulate", "censor-8192.json", "--format", "csv"): (
        "f57bf93197036b0569d9cbde6d51ea4f48d214987fb21cd8f3f6ae63a06ff365",
        b'', 0),
    ("simulate", "censor-8192.json", "--format", "json"): (
        "6eb0e3e1410a0174005ce37b0c37728067543af6b917987c9d47112b66f90567",
        b'', 0),
    ("simulate", "censor-8193.json", "--format", "text"): (
        "936a5e39576a2e0467c6783243ba70714b47472c0f608d491d7c4c84475617ec",
        b'', 0),
    ("simulate", "censor-8193.json", "--format", "csv"): (
        "ddae322a494a5903587304ebbd089a5b88a5be1e0271d4ae7a8e9c250c18fe25",
        b'', 0),
    ("simulate", "censor-8193.json", "--format", "json"): (
        "9256656a430354d9521b4f41bceb535e159d1c6854ea748ea484b9f087f8596a",
        b'', 0),
    ("simulate", "censor-24577.json", "--format", "text"): (
        "15da8705c3b4d08fc1ce7cb1d5f19bc578909c125558175684769e463797d220",
        b'', 0),
    ("simulate", "censor-24577.json", "--format", "csv"): (
        "c3917e3044b24ed77fe18ccbe2baddb262664e3d00c8a436801eb1fe04f511a7",
        b'', 0),
    ("simulate", "censor-24577.json", "--format", "json"): (
        "eee3c85d64f09b5d2c637acbce1eae6b1f10c1c46416f80ee9b69498de770693",
        b'', 0),
    ("simulate", "censor-200000.json", "--format", "text"): (
        "17ed33dd0e43421adfdd56f0f39a05c31b204098ad9dc58add478b6ed288a9a2",
        b'', 0),
    ("simulate", "censor-200000.json", "--format", "csv"): (
        "da0650d8bd46c71d21fde1101ad4716baf51bad79dff678dbaab8f1dfce5a640",
        b'', 0),
}

# argv -> (SHA-256 of stdout, stderr, exit code): the reports of uniform
# populations, whose draws call no C library function
UNIFORM = {
    ("simulate", "uniform-tracks-8191.json", "--format", "text"): (
        "3584bf24b7031c36712b0012b329d76329e4b679cb56c96bafa1f88dfcc83a1b",
        b"", 0),
    ("simulate", "uniform-tracks-8191.json", "--format", "csv"): (
        "79cea5de23b605567f23e32d91f3a7614cf10da9883e79070086c1c5e939bc7a",
        b"", 0),
    ("simulate", "uniform-tracks-8191.json", "--format", "json"): (
        "4766547b22db82094b5982e1012f6adb510715b2efd30b2b89f08e1b6020d873",
        b"", 0),
    ("simulate", "uniform-tracks-8192.json", "--format", "text"): (
        "ced5fe8b56991ec8d93ac95e0353c145d66f2437b435b5a5af5c10007ca3bf56",
        b"", 0),
    ("simulate", "uniform-tracks-8192.json", "--format", "csv"): (
        "201e3c25091c7ea22bda9c01fd117e6c169a46b3db49c97af9c3150652a7216c",
        b"", 0),
    ("simulate", "uniform-tracks-8192.json", "--format", "json"): (
        "56d451d9ad44ba1a008ea71089f7bd5d99a8b5e02a1ab5e9236701c60ea201ad",
        b"", 0),
    ("simulate", "uniform-tracks-8193.json", "--format", "text"): (
        "d4d5fe63e1145f5c8660992dfc11bfebe245ba0e5209c13c0f324e0616f2af32",
        b"", 0),
    ("simulate", "uniform-tracks-8193.json", "--format", "csv"): (
        "8837a7a1a717194d9362148e36526029cc2db560db4f717d588ca96942551efa",
        b"", 0),
    ("simulate", "uniform-tracks-8193.json", "--format", "json"): (
        "e4143ccc182a4b4a0a05bcc11e13e1a55057237654bab37149627be9835766b4",
        b"", 0),
    ("simulate", "uniform-tracks-24577.json", "--format", "text"): (
        "6aad092a52b7d0562f490fb448118b3f824ee5a15bc4278773ddbdd31afbfccc",
        b"", 0),
    ("simulate", "uniform-tracks-24577.json", "--format", "csv"): (
        "1b57f5a9904467142aa41115a696fba49bdc680db35a76a0db0ecd688822ec7e",
        b"", 0),
    ("simulate", "uniform-tracks-24577.json", "--format", "json"): (
        "b531d1b15c7792b5efabcc4c9296646e92ba4627fa3fa0fced3d07e962206983",
        b"", 0),
    ("simulate", "uniform-censor-8191.json", "--format", "text"): (
        "f991f0660e086e3c38909d92f8c81b03680729e69315b81e71fbaf693df43e51",
        b"", 0),
    ("simulate", "uniform-censor-8191.json", "--format", "csv"): (
        "e2b602de3d8f2519c5a6033b354616e00700ada57973479772e01902fa5ccab3",
        b"", 0),
    ("simulate", "uniform-censor-8191.json", "--format", "json"): (
        "77949d828e92334a6d2aee5e2104008c730e5c55ab6f95f332fc15d376cf5188",
        b"", 0),
    ("simulate", "uniform-censor-8192.json", "--format", "text"): (
        "24aa7cc538cf3f34e428e7099e7f161123086dc74a67ff5e9a9dbfa66805c252",
        b"", 0),
    ("simulate", "uniform-censor-8192.json", "--format", "csv"): (
        "5cea3b7438827fd78ef57772884b815f9a7875f6e7b604ffcf1402868e24813b",
        b"", 0),
    ("simulate", "uniform-censor-8192.json", "--format", "json"): (
        "62dc5d4f9a47ed4853cf73195d6dc2d1076da83449cb8c3d5ca81ba4ca178c96",
        b"", 0),
    ("simulate", "uniform-censor-8193.json", "--format", "text"): (
        "52f2078f82f6e65f95568a0645f4afa03372859b4db8a51887ec1af9de22847a",
        b"", 0),
    ("simulate", "uniform-censor-8193.json", "--format", "csv"): (
        "ddeccabc0960cb561c8e129c8df73772df604815994af0474e9502f1b054aa37",
        b"", 0),
    ("simulate", "uniform-censor-8193.json", "--format", "json"): (
        "240886c0824c91f69a368f6a85d4f62faca6819237c9268e02e913adfe718fd9",
        b"", 0),
    ("simulate", "uniform-censor-24577.json", "--format", "text"): (
        "f4034245ed7eb196358ffb8435e8b9fc3946cccac8cbb8f7f9d1ebfac8ba54b4",
        b"", 0),
    ("simulate", "uniform-censor-24577.json", "--format", "csv"): (
        "8306115f40872e269d0f0b4db449f1d9b454139fbe46b85e6f223827550bf23e",
        b"", 0),
    ("simulate", "uniform-censor-24577.json", "--format", "json"): (
        "24324661c2604d3b491a75bae54d40c57c6c8757d67c3fffab8dc731f16ec36b",
        b"", 0),
}

# argv -> (SHA-256 of stdout, stderr, exit code): every other call
COMPUTED = {
    # analyze: the 2 MiB file, with the default and the other options
    ("analyze", "radii.csv", "--format", "text"): (
        "3e1fbe1dadc0cfd09c08c7d51567a510d787c1dcc750f2a2141a17f06282e06e",
        b'', 0),
    ("analyze", "radii.csv", "--format", "csv"): (
        "4316389116cd964bcbaff22a9df7d6a1bb010afaeb14c117b67c01fda23cacce",
        b'', 0),
    ("analyze", "radii.csv", "--unit", "m", "--momentum", "derived", "--floor", "1e9",
     "--format", "text"): (
        "ec30f206339f78ad47d956141623405f22c73c2003f9a847bfe5050dda0ce2c4",
        b'', 0),
    # accrual: collapse at the first step, at the last and never; a sweep of all three
    ("simulate", "accrual-first.json", "--format", "json"): (
        "a1a8ed8575725647e604a3f24b6ead2b9001360c7b35b031813c66e3b4aaaca3",
        b'', 0),
    ("simulate", "accrual-first.json", "--format", "text"): (
        "e2bfbf802e8f779533ec6da71f35acd75d95058aa7ff5c8c0395a7e4ec38b5bf",
        b'', 0),
    ("simulate", "accrual-last.json", "--format", "json"): (
        "7800a9860dbcdfe49e5d8efa4bd4a49a1fbe08a4276c87df745914d2c281b431",
        b'', 0),
    ("simulate", "accrual-last.json", "--format", "text"): (
        "e0bc9c6c0dbd20ee541a7aa42fc4cab1c34af4600ae6ce0449ca5af41c85adae",
        b'', 0),
    ("simulate", "accrual-never.json", "--format", "json"): (
        "d93a35331a24d5d573304536c742acc5377a4430aff5327f94475dc7c462d23a",
        b'', 0),
    ("simulate", "accrual-never.json", "--format", "text"): (
        "85ee8015a1367319db08302e7ac27e961b0456e0fc61131ffbe3eb7b6657d3aa",
        b'', 0),
    ("simulate", "sweep.json", "--format", "json"): (
        "b4164055a798ab021b9484445589e633090ed25fae8409d0e5001957737ee51e",
        b'', 0),
    ("simulate", "sweep.json", "--format", "csv"): (
        "e4256d7a0bbaaf5fdfc317a6335c2ab932434e4f18b7ff34143da126c965bb93",
        b'', 0),
    ("simulate", "sweep.json", "--format", "text"): (
        "003913cdafb09e14f3611271bdc47bd9dd3e46537e52d2464fb18df9ecf08255",
        b'', 0),
    # budget: each flag off its default
    ("budget", "--temperature", "4.2", "--format", "json"): (
        "88af169ecd317a4012b26c514c44d5984d4349efac3929c1a52bce493e703456",
        b'', 0),
    ("budget", "--temperature", "4.2", "--format", "text"): (
        "200d11d409c94e98bf97b3d5aa733df1ed8119debc6d3dbf7e812f2d4a514fde",
        b'', 0),
    ("budget", "--bits", "1", "--format", "json"): (
        "aeff2d083fd372ed477cb7abce410daf6cc9f8650d00b3151d101ba24b6fbc46",
        b'', 0),
    ("budget", "--bits", "1", "--format", "text"): (
        "77624dfaf3c18be055193c07a4a05818c091523a28a4b002d1fcd78091a081f5",
        b'', 0),
    ("budget", "--modes", "1e20", "--format", "json"): (
        "807533765095ac2ab93351daed3803ad16bc14af82caf9dcc34c0b9674db037b",
        b'', 0),
    ("budget", "--modes", "1e20", "--format", "text"): (
        "56b89130f1aad9446a3d8c150a32de2a023c90d6cf4ae686fc3396de1d95ab11",
        b'', 0),
    ("budget", "--tau", "1e-09", "--format", "json"): (
        "e9866220f2a53aa3f6d201be777b203794b72d486fd5f8e54a69bd036e8fd613",
        b'', 0),
    ("budget", "--tau", "1e-09", "--format", "text"): (
        "30f14096aa4840894f0364c16790d999eca01d5aef78572b61edc734a5ee34ce",
        b'', 0),
    ("budget", "--fps", "1000", "--format", "json"): (
        "484a9b1014b33cc8492b6e32e1701381c40336eb7b185ef4f29c91cf94e59be9",
        b'', 0),
    ("budget", "--fps", "1000", "--format", "text"): (
        "ec54f1285e37f60cd2b53056546cab5988d154012f6174fb249c530acb7ad771",
        b'', 0),
    # budget errors: a component overflows, 1/frame_rate overflows, a bound
    ("budget", "--temperature", "1e308"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: budget component decoherence_rate is not finite (inf); the inputs leave the float range\n', 1),
    ("budget", "--fps", "1e-320"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: 1/frame_rate overflows: --fps 1e-320\n', 1),
    ("budget", "--temperature", "-1"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: --temperature must be finite and > 0, got -1.0\n', 1),
    # usage errors, exit 1; --version exits 0
    (): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: the following arguments are required: subcommand\n', 1),
    ("constants", "--vers"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: unrecognized arguments: --vers\n', 1),
    ("budget", "--temperature", "abc"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b"qtf: error: argument --temperature: invalid float value: 'abc'\n", 1),
    ("constants", "--out", ""): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: argument --out: expected a path, got an empty string\n', 1),
    ("--version",): (
        "2c0fc14cfdd8ef38b53d2b374a061773cce09e1bb9ce5da748104a8333bfe124",
        b'', 0),
    # configuration errors, exit 1
    ("analyze", "radii.csv", "--floor", "-1"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: error: --floor must be finite and >= 0, got -1.0\n', 1),
    ("simulate", "truncated.json"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b"qtf: error: config truncated.json is not valid JSON: Expecting ',' delimiter: line 1 column 19 (char 18)\n", 1),
    ("simulate", "unknown-key.json"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b"qtf: error: config has unknown keys: ['workers']\n", 1),
    ("simulate", "unknown-mode.json"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b"qtf: error: unknown mode 'scan' (tracks, censor, accrual, sweep)\n", 1),
    ("simulate", "accrual-first.json", "--format", "csv"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b"qtf: error: accrual mode supports json or text, got 'csv'\n", 1),
    # data errors, exit 2
    ("analyze", "comments.csv"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: data error: no valid radius rows in input (comments.csv)\n', 2),
    ("analyze", "latin1.csv"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b"qtf: data error: input is not decodable as UTF-8: 'utf-8' codec can't decode byte 0xb5 in position 13: invalid start byte\n", 2),
    ("simulate", "censor-all.json"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        b'qtf: data error: all 100 tracks fall below floor 1e+30\n', 2),
}


@pytest.mark.parametrize("argv", list(SIMULATED), ids=_test_id)
def test_simulated_populations_are_golden(corpus_dir, monkeypatch, argv):
    run_golden(corpus_dir, monkeypatch, argv, SIMULATED[argv])


@pytest.mark.parametrize("argv", list(UNIFORM), ids=_test_id)
def test_uniform_populations_are_golden(corpus_dir, monkeypatch, argv):
    run_golden(corpus_dir, monkeypatch, argv, UNIFORM[argv])


@pytest.mark.parametrize("argv", list(COMPUTED), ids=_test_id)
def test_other_calls_are_golden(corpus_dir, monkeypatch, argv):
    run_golden(corpus_dir, monkeypatch, argv, COMPUTED[argv])

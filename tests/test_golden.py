"""Golden outputs: the deterministic documents of analyze, det and sl2,
pinned by the sha256 of their bytes.

Each case runs cli.main in this process. A JSON document is compared
without its timings, as json.dumps(doc, sort_keys=True); a csv or table
run is compared as printed. A change that alters these bytes on purpose
prints the new table with

    PYTHONPATH=src python tests/test_golden.py

and replaces GOLDEN with it, naming the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from hopfmin import cli

# the trivial3-qq bench workload's datum at seed 1
TRIVIAL3 = {"rank": 2, "field": "rational",
            "alphas": [[-2, 1], [3, -3], [3, 3]],
            "gammas": [["1", "1"], ["1", "1"], ["1", "1"]]}
# q_11 = 1 - t: the seed point t = 2 is a root of 1 + q_11
SEED_ROOT = {"rank": 2, "field": "rational_function",
             "alphas": [[1, 0], [0, 1]],
             "gammas": [["-t + 1", "t^-1"], ["t", "t"]]}
# points with non-monomial parts and with poles
SPLIT4 = {"rank": 2, "field": "rational_function",
          "alphas": [[1, 0], [0, 1], [1, 1], [1, -1]],
          "gammas": [["-t + 1", "t^-1"], ["t+2", "t"], ["(t-1)/(t+3)", "2t"],
                     ["t^2-t-2", "1/(t-2)"]]}

# name -> argv; a dict stands for a datum file holding it
CASES = {
    # the bench workloads
    "a2-qt": ("analyze", "--preset", "cartan:A2", "--max-total", "8",
              "--format", "json"),
    "trivial3-qq": ("analyze", "--datum", TRIVIAL3, "--max-total", "7",
                    "--format", "json"),
    "a2-zeta3-jobs2": ("analyze", "--preset", "cartan:A2", "--specialize",
                       "3", "--max-total", "10", "--jobs", "2",
                       "--format", "json"),
    "g2-doubled-det": ("det", "--preset", "doubled:G2", "--deg", "1,1,1,1",
                       "--format", "json"),
    # tables over every field
    "analyze-g2": ("analyze", "--preset", "cartan:G2", "--max-total", "8",
                   "--format", "json"),
    "analyze-doubled-a2": ("analyze", "--preset", "doubled:A2",
                           "--max-total", "4", "--format", "json"),
    "analyze-b2-zeta5": ("analyze", "--preset", "cartan:B2", "--specialize",
                         "5", "--max-total", "12", "--format", "json"),
    "analyze-reductive-a2": ("analyze", "--preset", "reductive:A2",
                             "--max-total", "4", "--format", "json"),
    "analyze-seed-root": ("analyze", "--datum", SEED_ROOT, "--max-total", "8",
                          "--format", "json"),
    # determinants: full-rank word matrices over QQ(t), a singular block,
    # Gauss steps at a root of unity, non-monomial points
    "det-a1": ("det", "--preset", "cartan:A1", "--deg", "12",
               "--format", "json"),
    "det-b2": ("det", "--preset", "cartan:B2", "--deg", "2,1",
               "--format", "json"),
    "det-g2-singular": ("det", "--preset", "cartan:G2", "--deg", "3,2",
                        "--format", "json"),
    "det-b2-zeta7": ("det", "--preset", "cartan:B2", "--specialize", "7",
                     "--deg", "2,1", "--format", "json"),
    "det-split4": ("det", "--datum", SPLIT4, "--deg", "1,1,1,1",
                   "--factor-bound", "1000000", "--format", "json"),
    "sl2": ("sl2", "--lam", "3", "--format", "json"),
    # the text formats
    "analyze-csv": ("analyze", "--preset", "cartan:B2", "--specialize", "5",
                    "--max-total", "6", "--format", "csv"),
    "analyze-table": ("analyze", "--preset", "cartan:A2", "--max-total", "4",
                      "--format", "table"),
}

GOLDEN = {
    "a2-qt":
        "8481f308def209f71046fb041721be46d8c60f5428e3a54fafa2fa46b360d089",
    "trivial3-qq":
        "facceac6bb27a2ae904e95f58735cc88b67f555bac7db99f98968b56fad8e5a7",
    "a2-zeta3-jobs2":
        "88619f7ef7c6471317e97531e57c434c55821885d2bdf6c06c16081f4bc2205b",
    "g2-doubled-det":
        "6aef3a204075892d1b2178e4956ccd1b7d8aa39b38129803ca3ddd086566298c",
    "analyze-g2":
        "6d6d57c3b5346bcc5da25771129b3d82bfb64af5a67a75eb7aa475f7b054a616",
    "analyze-doubled-a2":
        "933ca5081c667d9dcf8e8034d88f977cd6ac875660f466a0453866f368e571ea",
    "analyze-b2-zeta5":
        "81b90d7acca250260b0bc2e669b78f8836ee0193a79204ee60f486ce041f6684",
    "analyze-reductive-a2":
        "08a2a0b0cf254f076498a7e34e3e19e2b7aaaae9dae05bbeaebe421ccbebedbd",
    "analyze-seed-root":
        "d9721cb6c404d718dfd74dc0b90407bcbaf8704d45c9ddab3f87b195b2140fd0",
    "det-a1":
        "eed7e4336cf6c03985e7154b65aa4186937daf8293438ba0c256a9dc773c947f",
    "det-b2":
        "e2ef0e7bb3f071aa83c44200943cc032d1e71f82257d75703257a28ce3113610",
    "det-g2-singular":
        "4c716e1ff70f2b1b7170da4b5aa0636c435b141a159bdb91ae435d64048d6471",
    "det-b2-zeta7":
        "44691776b2810ca65d68bd8d3dc9b751eebbb76b213753d63b871d3a659aece3",
    "det-split4":
        "b96bb0f5ffcf67ef35111aff3f6fc3e0bd7a072db6f36c51e8ca3d60990d80c2",
    "sl2":
        "61b54decc5a6bc9883fb6533ebc24d6ed1539bfa4a6f573d4c7535d2f7164f38",
    "analyze-csv":
        "a065ecbbbd8f7127aed5de42ad74d70a1214027ce6a757da227f1f8bd2126e24",
    "analyze-table":
        "2faeb84e1ced5f64481708be812708a5c37d9dbc2a44cec9866285f643cbc252",
}


def digest(argv, workdir):
    """The sha256 of one case's output; the run must exit 0."""
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path = pathlib.Path(workdir) / f"datum{len(args)}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    assert code == cli.EXIT_OK, (argv, code)
    text = out.getvalue()
    if args[args.index("--format") + 1] == "json":
        doc = json.loads(text)
        doc.pop("timings", None)
        text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert digest(CASES[name], tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("GOLDEN = {")
        for name in CASES:
            print(f'    "{name}":\n        "{digest(CASES[name], workdir)}",')
        print("}")

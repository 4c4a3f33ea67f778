"""Every scafd subcommand with scipy and hypothesis unimportable; exits 0 if all pass.

Run from an empty directory: python tests/numpy_only_checks.py tests/data/v1/pca.json
tier-1 (test_runtime_needs_numpy_only) runs it against src/, and the CI job
numpy-only against an install without the test extras.  pytest does not collect it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

if not __debug__:
    raise SystemExit("the checks are assert statements: run without -O")


class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis"):
            raise ModuleNotFoundError(f"{name} is blocked")


sys.meta_path.insert(0, Blocked())
for name in ("scipy", "hypothesis"):
    try:
        __import__(name)
    except ModuleNotFoundError:
        continue
    raise SystemExit(f"{name} was imported")

from scafd.cli import METHODS, main


def run(*argv: str) -> tuple[int, str, str]:
    """main(argv) with its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(list(argv)), out.getvalue(), err.getvalue()


# gen-toy, train and detect for every method, a five-method bench, bayes-demo
fit = ["--train", "toy/train.csv", "--header", "--p", "2", "--max-iters", "20"]
assert main(["gen-toy", "--out-dir", "toy", "--train-m", "100",
             "--normal-m", "20", "--fault-m", "40"]) == 0
for method in METHODS:
    assert main(["train", *fit, "--method", method, "--out", f"{method}.json"]) == 0
    assert main(["detect", "--model", f"{method}.json", "--data", "toy/test.csv",
                 "--header", "--normal-count", "20"]) == 0
assert main(["bench", *fit, "--methods", ",".join(METHODS),
             "--test", "toy/test.csv:20:1", "--out-dir", "bench"]) == 0
metrics = Path("bench/metrics.csv").read_text()
assert metrics.count("\n") == 1 + len(METHODS) and "NA" not in metrics, metrics
assert main(["bayes-demo", "--out", "bayes.csv"]) == 0

# train from a config file; detect names an overflowing sample in one line of
# stderr, with no numpy warning before it
rows = [f"0.00{i % 7},{i % 5}" for i in range(1, 31)]
Path("narrow.csv").write_text("\n".join(["x1,x2", *rows]) + "\n")
Path("narrow.cfg").write_text("train=narrow.csv\nheader=true\nmethod=pca\np=1\n"
                              "out=narrow.json\n")
assert main(["train", "--config", "narrow.cfg"]) == 0
# x1's spread is about 2e-3, so 1e308 overflows its z-score
Path("overflow.csv").write_text("x1,x2\n0,1\n0,2\n1e308,3\n")
status, out, err = run("detect", "--model", "narrow.json", "--data", "overflow.csv",
                        "--header")
assert (status, err) == (2, "error: non-finite entry at variable 0, sample 2\n"), err

# an unknown config key and a fault id with a comma exit 2
Path("bogus.cfg").write_text("train=narrow.csv\nbogus=1\n")
status, out, err = run("train", "--config", "bogus.cfg", "--out", "bogus.json")
assert (status, err) == (2, "error: bogus.cfg: config line 2: unknown key 'bogus'\n"), err
assert run("bench", *fit, "--test", "toy/test.csv:20:a,b", "--out-dir", "comma")[0] == 2
assert not Path("comma").exists()

# toy/test.csv holds 20 normal and 40 faulty samples: a case with no faulty
# sample exits 2 before any fit
status, out, err = run("bench", *fit, "--methods", "pca,sca",
                        "--test", "toy/test.csv:60:1", "--out-dir", "nofault")
assert (status, err) == (2, "error: toy/test.csv: no faulty segment: "
                            "normal_count equals sample count\n"), err
assert not Path("nofault").exists()

# an --out that is an existing directory exits 2 before any fit or output
for command, args in (("train", [*fit, "--method", "ae"]),
                      ("detect", ["--model", "pca.json", "--data", "toy/test.csv",
                                  "--header"])):
    status, out, err = run(command, *args, "--out", "toy")
    assert (status, out, err) == (2, "", "error: --out toy: is a directory\n"), err

# a bad normal count prints nothing; a number beyond float range exits 2
status, out, err = run("detect", "--model", "pca.json", "--data", "toy/test.csv",
                        "--header", "--normal-count", "0")
assert (status, out) == (2, ""), out
doc = json.loads(Path(sys.argv[1]).read_text())
doc["g_mean"][0] = 10**400
Path("big.json").write_text(json.dumps(doc))
status, out, err = run("detect", "--model", "big.json", "--data", "toy/test.csv",
                        "--header")
assert (status, err) == (2, "error: big.json: entry 'g_mean' holds a number "
                            "beyond float range\n"), err

"""The CLI imports without scipy, and its simulate, audit, compose, canary
and fit-gdp paths never load it: scipy.special and scipy.fft cost about as
much to import as the rest of the program. Nor do they load numpy.ma, which
numpy imports on first use of functions such as ``np.quantile`` and which
costs every process that bins scores about 1.4 MB. Each check runs in a fresh
interpreter, so modules that other tests imported do not count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpaudit.mechanisms import GaussianMechanism, SubsampledGaussianMechanism
from dpaudit.scores import write_scores

SRC = Path(__file__).resolve().parents[1] / "src"

# runs argv through the CLI, then prints its exit code and every scipy or
# numpy.ma module loaded
SCRIPT = """
import sys
import dpaudit.cli
argv = sys.argv[1:]
code = dpaudit.cli.main(argv) if argv else 0
print(code, sorted(m for m in sys.modules
                   if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""


def loaded_scipy_or_ma_modules(argv, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1]  # after the lines the command prints


@pytest.fixture(scope="module")
def score_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scipy_free")
    scores_p, scores_q = SubsampledGaussianMechanism(0.25, 0.5).sample_pair(10 ** 5, seed=5)
    write_scores(root / "p.txt", scores_p)
    write_scores(root / "q.txt", scores_q)
    GaussianMechanism(1.0).profile([0.0, 0.5, 1.0, 2.0, 4.0]).to_csv(root / "g.csv")
    return root


@pytest.mark.parametrize("argv", [
    [],
    ["simulate", "--mechanism", "subsampled-gaussian", "--q", 0.25, "-n", 100, "s_p.txt", "s_q.txt"],
    ["audit", "p.txt", "q.txt", "--fit-sigma", "mixture:q=0.25", "--json", "r.json",
     "--curve", "c.csv", "--curve-bound", "b.csv"],
    ["audit", "p.txt", "q.txt", "--bins", 20, "--fit-sigma", "gaussian"],
    ["compose", "p.txt", "q.txt", "--compositions", 10, "--csv", "composed.csv",
     "--json", "composed.json"],
    ["canary", "--mode", "white-box", "-d", 16, "--iterations", 2000, "--canary-prob", 0.5,
     "--sigma", 2, "--audit", "--out-p", "op.txt", "--out-q", "oq.txt", "--json", "w.json"],
    ["canary", "--mode", "one-shot", "-d", 4096, "-n", 200, "--sigma", 1, "--audit",
     "--out-p", "sp.txt", "--out-q", "sq.txt"],
    ["fit-gdp", "--profile", "g.csv"],
    ["fit-gdp", "--in-p", "p.txt", "--in-q", "q.txt"],
], ids=["import", "simulate", "audit-mixture", "audit-gaussian", "compose",
        "canary-white-box", "canary-one-shot", "fit-gdp-profile", "fit-gdp-scores"])
def test_cli_path_loads_no_scipy(score_files, argv):
    assert loaded_scipy_or_ma_modules(argv, score_files) == "0 []"

"""The SHA-256 of every bench workload's `Metrics` under every scheme, at
seed 1, as `python3 bench/run.py --seed 1` prints it.

A speed-up counts only if every one of these stays the same.  The traces,
the cornucopia-rof prefixes and the digest function are the bench's own,
imported from bench/, so this replays exactly what the bench replays.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from colorcap.harness import run_trace

ROOT = Path(__file__).resolve().parent.parent
BENCH = str(ROOT / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from matrix import WORKLOADS, prefix  # noqa: E402
from run import metrics_digest  # noqa: E402

DIGESTS = {
    "churn-fifo": {
        "picasso": "2c86a32f3e794125a84f4651b7da5212e28dca98d6660bd0494f4617cd6a1ba3",
        "cornucopia": "7dce995c93d63d50e9617658972849413f93be719bccee794a5f6c0c0872d947",
        "cornucopia-rof": "259c4d427fcda1782e849a262ef479fb30a08dff2ec8239850ef7d071e51a230",
        "versioning": "9c511514bf4dc82c54d35668336f7f9719eff860e9f0f4c7032b8eab54114ae7",
        "none": "607f02a214da7add108bec4ed7c2815aeb0fa06b62bc3a2888494e7ac64cfcfe",
    },
    "churn-random-mixed": {
        "picasso": "e47e8c823bc5b6eba52df8ae156fcd10f7fb251d79a14165edec7bc30e1b08d3",
        "cornucopia": "c90620a848b47d435c9ac1299c51120bbf7a969a0c4bb56b0414a89b24b53920",
        "cornucopia-rof": "92f1c0199e88dfb4a2fd5cf001e945430407190390641add0eec9dd66ccfdd90",
        "versioning": "a2eb03ebcbd019698a602af2abacb2c324241c016f42fe1a7aec4bcf3d5cc042",
        "none": "3193dd41d64cea146026b6c76309dc9446d5482d047b00db664ecb18585e222d",
    },
    "churn-random-fixed": {
        "picasso": "65f03cbd8c024731a96932c28fe14119924f9791298687724c2fb875fbe76202",
        "cornucopia": "07729971fc3dbb1f2d7e5cb38f7537fa6f77bc85de5308aadff85afb3982bb1c",
        "cornucopia-rof": "b195dd2311908a826477a58e534543e80a97c31f7bdd098d7b99c70fa3aa4db5",
        "versioning": "beeb62f4ce8fceed0527b67dbfbfa8bcb560a78990187c03c56561d08cde6307",
        "none": "74aada1662a7ffc3d3a797f629041512019e21e3978a2b6e7458f85b27f405e9",
    },
    "locality": {
        "picasso": "1d229efc5687d3e7730c6c7d7d6d97f9ee38ba6756817923c5bce87e5e82065e",
        "cornucopia": "a443461f813d3420b447c5d9b8b035e00be1b0d5290ca71c0b2e84408ab55916",
        "cornucopia-rof": "1fa54c52d4ba1aa979edddbc1fe735805ae4cd920235682e9b5a9cf4f26feed4",
        "versioning": "227686a788a752876607a16747c25773890cb939c2bdfa0cc1253ca357cad80a",
        "none": "48f3e6f54ae5bdeb0c4a0583aa6fc13af2d6669c7b73c39cd81750c53ee798a7",
    },
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_every_scheme_replays_to_its_pinned_digest(name):
    workload = WORKLOADS[name]
    trace = workload.build(1)
    digests = {}
    for scheme in DIGESTS[name]:
        replayed = prefix(trace, workload.rof_ops) if scheme == "cornucopia-rof" else trace
        digests[scheme] = metrics_digest(run_trace(replayed, scheme, workload.config).metrics)
    assert digests == DIGESTS[name]


#: Replays churn-fifo at seed 1 under the schemes named in argv and prints
#: their digests as one JSON object.
_REPLAY = """
import json, sys
from colorcap.harness import run_trace
from matrix import WORKLOADS
from run import metrics_digest
workload = WORKLOADS["churn-fifo"]
trace = workload.build(1)
print(json.dumps({s: metrics_digest(run_trace(trace, s, workload.config).metrics)
                  for s in sys.argv[1:]}))
"""


@pytest.mark.parametrize("hash_seed", ["0", "987654"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    # No result may follow the order of a str- or bytes-keyed set or dict: a
    # fresh interpreter under another hash seed replays to the same digests.
    schemes = ["picasso", "cornucopia"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), BENCH]))
    done = subprocess.run([sys.executable, "-c", _REPLAY, *schemes], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {s: DIGESTS["churn-fifo"][s] for s in schemes}

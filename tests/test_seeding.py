"""`simulate`'s seeding against NumPy's own `default_rng`.

Chunk ``c`` of `cli._TRIAL_CHUNK` trials draws from
``default_rng([seed, 1, c])``, first the codeword index of each of its
trials in one ``integers`` call.  So the ``tx_index`` column of a run must
be those draws, chunk after chunk, for every seed the config takes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from subspacecodes import cli
from subspacecodes.cli import EXIT_OK

# seeds of 2**64 and above give entropy longer than SeedSequence's 4-word pool
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70, 2**96 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_default_rng(seed, tmp_path, capsys):
    # a full chunk, then a second one of 33 trials
    trials = cli._TRIAL_CHUNK + 33
    cfg = {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": 1, "t": 0},
           "trials": trials, "seed": seed}
    cfg_path, out = tmp_path / "sim.json", tmp_path / "sim.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().splitlines()[2:]
    column = lines[0].split(",").index("tx_index")
    tx = [int(line.split(",")[column]) for line in lines[1:-1]]
    expected = []
    for chunk, start in enumerate(range(0, trials, cli._TRIAL_CHUNK)):
        count = min(cli._TRIAL_CHUNK, trials - start)
        expected += np.random.default_rng([seed, 1, chunk]).integers(25, size=count).tolist()
    assert tx == expected

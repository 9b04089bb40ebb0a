"""Verification-layer benchmarks: oracle cost and matrix runtime.

The oracle is *supposed* to be slow — it trades every optimization for
auditability — but the verification loop only stays runnable on every
push if "slow" stays within a couple orders of magnitude of production.
These benchmarks track that ratio and the end-to-end cost of the
in-process differential matrix, so a corpus or oracle change that makes
`repro verify` impractically expensive shows up as a number, not as CI
timeouts.
"""

import numpy as np
import pytest

from repro.verify import OracleSTS, run_verification, verification_corpus


@pytest.fixture(scope="module")
def corpus():
    return verification_corpus()


def _score_matrix(measure, corpus):
    out = np.zeros((len(corpus.queries), len(corpus.gallery)))
    for i, q in enumerate(corpus.queries):
        for j, g in enumerate(corpus.gallery):
            out[i, j] = measure.similarity(q, g)
    return out


def test_production_matrix(benchmark, corpus):
    benchmark(lambda: _score_matrix(corpus.measure(), corpus))


def test_oracle_matrix(benchmark, corpus):
    oracle = OracleSTS(corpus.grid, corpus.sigma)
    benchmark(lambda: _score_matrix(oracle, corpus))


def test_inprocess_verification(benchmark, corpus):
    # Serial-comparable paths + the full relation suite; the
    # process-spawning paths are excluded so the benchmark measures
    # verification arithmetic, not fork/exec.
    benchmark(lambda: run_verification(
        paths=["batch", "anytime", "oracle"],
        corpus=corpus))


def test_oracle_single_stp(benchmark, corpus):
    # One mid-segment Markov-bridge query: the oracle's unit of work.
    oracle = OracleSTS(corpus.grid, corpus.sigma)
    tra = corpus.gallery[0]
    t = 0.5 * float(tra.timestamps[0] + tra.timestamps[1])
    benchmark(lambda: oracle.stp(tra, t))

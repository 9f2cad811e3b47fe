"""In-memory experiment orchestration over a corpus on disk."""

import pytest

from streamfuse import experiments
from streamfuse.decoder import make_hmm
from streamfuse.simulator import CorpusSpec, build_scenario


@pytest.fixture(scope="module")
def hrm_corpus(tmp_path_factory):
    spec = CorpusSpec(
        num_utterances=6,
        frames_min=30,
        frames_max=50,
        num_classes=8,
        num_streams=5,
        seed=3,
    )
    scen = build_scenario("hrm_like", spec, hmm=make_hmm(8, 3))
    outdir = tmp_path_factory.mktemp("exp") / "hrm"
    experiments.write_corpus(scen, outdir)
    return experiments.load_corpus(outdir)


@pytest.mark.parametrize("method", ["entropy", "max_n"])
def test_n_sweep_rows_equal_per_n_evaluation(hrm_corpus, method):
    M = hrm_corpus.num_streams
    expected = [
        (f"{method}:n={n}", experiments.evaluate_method(hrm_corpus, method, n=n))
        for n in range(1, M + 1)
    ]
    assert experiments.n_sweep(hrm_corpus, method) == expected

import copy
import pickle

import pytest

from swordgen.greedy import generate_greedy, verify_gray_code
from swordgen.stirling import trace
from swordgen.trees import all_kary_trees, stirling_word_to_tree
from swordgen.words import make_shape


def one_of_each():
    run = generate_greedy(make_shape((1, 1, 1)), {"231"})
    return {
        "Shape": make_shape((2, 1, 3)),
        "GrayCodeRun": run,
        "GrayCodeReport": verify_gray_code(run),
        "BumpMove": run.moves[0],
        "TraceRow": trace(make_shape((2, 1)))[0],
        "STree": stirling_word_to_tree((1, 1, 2, 3, 3, 3)),
        "KTree": all_kary_trees(3, 2)[0],
    }


@pytest.mark.parametrize("name", list(one_of_each()))
def test_record_survives_copy_and_pickle(name):
    # a record sent to another process goes by pickle; a Shape rebuilds
    # from its multiplicities alone
    record = one_of_each()[name]
    assert type(record).__name__ == name
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record

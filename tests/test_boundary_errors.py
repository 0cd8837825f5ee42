"""Bad input fails at the ``PIMTrie`` API boundary with a typed error.

Every public batch entry point checks its batch in one O(batch)
``isinstance`` pass and raises ``TypeError`` naming the operation, the
offending index and its type — before any span opens or round runs, so
a rejected batch leaves the metrics and the key set untouched.
"""

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.obs import Tracer

P = 4
KEYS = [BitString(v, 8) for v in (3, 40, 77, 130, 200, 255)]
GOOD = BitString(0b1010, 4)

#: entry point -> (call with a bad element at index 1, expected message)
CALLS = {
    "lcp_batch": (lambda t: t.lcp_batch([GOOD, "abc"]), "key 1 is str"),
    "lookup_batch": (lambda t: t.lookup_batch([GOOD, 5]), "key 1 is int"),
    "insert_batch": (
        lambda t: t.insert_batch([GOOD, b"k"], ["a", "b"]), "key 1 is bytes"),
    "delete_batch": (lambda t: t.delete_batch([GOOD, None]), "key 1 is NoneType"),
    "subtree_batch": (lambda t: t.subtree_batch([GOOD, 1.5]), "key 1 is float"),
    "subtree_tries": (lambda t: t.subtree_tries([GOOD, "0"]), "key 1 is str"),
    "predecessor_batch": (
        lambda t: t.predecessor_batch([GOOD, "abc"]), "key 1 is str"),
    "successor_batch": (
        lambda t: t.successor_batch([GOOD, (1, 2)]), "key 1 is tuple"),
    "prefix_count_batch": (
        lambda t: t.prefix_count_batch([GOOD, "1"]), "key 1 is str"),
    "topk_batch": (lambda t: t.topk_batch([GOOD, 3], 2), "key 1 is int"),
    "top_k": (lambda t: t.top_k("abc", 2), "key 0 is str"),
    "range_batch": (
        lambda t: t.range_batch([(GOOD, GOOD), (GOOD, "z")]), "bound 1 is tuple"),
    "range_batch_single": (
        lambda t: t.range_batch([(GOOD, GOOD), GOOD]), "bound 1 is BitString"),
}


def make_trie():
    system = PIMSystem(P, seed=3)
    trie = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=KEYS,
                   values=list(range(len(KEYS))))
    return trie


@pytest.mark.parametrize("entry", sorted(CALLS))
def test_bad_key_raises_typed_error_and_changes_nothing(entry):
    trie = make_trie()
    tracer = Tracer(trie.system)
    call, message = CALLS[entry]
    before = trie.system.snapshot().as_dict(include_per_module=True)
    with pytest.raises(TypeError, match=message):
        call(trie)
    assert trie.system.snapshot().as_dict(include_per_module=True) == before
    assert not tracer.spans
    assert sorted(trie.replica_log_items()) == KEYS
    trie.validate()


def test_error_names_the_operation():
    with pytest.raises(TypeError, match=r"^lcp_batch: key 0 is str"):
        make_trie().lcp_batch(["abc"])


def test_valid_batches_still_pass():
    trie = make_trie()
    assert trie.lookup_batch(KEYS[:2]) == [0, 1]
    assert trie.range_batch([[KEYS[0], KEYS[2]]]) == [
        [(k, i) for i, k in enumerate(KEYS[:3])]
    ]

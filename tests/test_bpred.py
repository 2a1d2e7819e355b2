"""Unit tests for the front-end predictors: TAGE, the instruction distance
predictor, their lookup hash memo, the BTB and the RAS.

The TAGE tests walk one branch through a scripted allocate/train sequence
on a small two-component predictor and assert each intermediate prediction
-- provider selection, the weak-entry alternate-prediction policy, the
allocation-on-misprediction rule, and the useful-counter update rule
(useful moves only when provider and alternate disagree).

With 3-bit counters the weakly-taken threshold is 4; a freshly allocated
not-taken entry starts at 3.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import random
from types import SimpleNamespace

import pytest

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import ReturnAddressStack
from repro.bpred.tage import TageBranchPredictor, TageComponentConfig, TageConfig
from repro.common.hashing import mix_hash, tag_hash
from repro.common.history import HistoryCheckpoint, PathHistory, ShiftHistory
from repro.core.distance import TageDistancePredictor

PC = 0x40


def _small_tage() -> TageBranchPredictor:
    return TageBranchPredictor(TageConfig(
        base_entries=16,
        components=(TageComponentConfig(16, 8, 4), TageComponentConfig(16, 8, 8)),
    ))


def _fresh_histories() -> tuple[ShiftHistory, PathHistory]:
    return ShiftHistory(max_bits=256), PathHistory(max_bits=32)


def _entry(predictor: TageBranchPredictor, component: int, index: int) -> SimpleNamespace:
    """Read one tagged entry's fields out of the predictor's flat lists."""
    return SimpleNamespace(tag=predictor._tags[component][index],
                           counter=predictor._counters[component][index],
                           useful=predictor._useful[component][index],
                           valid=predictor._valid[component][index])


# ---------------------------------------------------------------------------
# TAGE worked example
# ---------------------------------------------------------------------------


def test_tage_worked_example_allocation_and_useful_bits():
    predictor = _small_tage()
    history, path = _fresh_histories()

    # 1. Cold predictor: the base bimodal counter (4 = weakly taken) provides.
    p1 = predictor.predict(PC, history, path)
    assert (p1.provider, p1.taken, p1.weak) == (-1, True, True)

    # 2. The branch is actually not taken: base trains down to 3 and the
    #    misprediction allocates a not-taken (counter 3) entry in comp 0.
    predictor.update(PC, False, p1)
    assert predictor._base[p1.base_index] == 3
    slot0 = (0, p1.indices[0])
    entry0 = _entry(predictor, *slot0)
    assert entry0.valid and entry0.tag == p1.tags[0]
    assert (entry0.counter, entry0.useful) == (3, 0)

    # 3. Comp 0 now provides, but a weak entry with useful == 0 defers to
    #    the alternate prediction (the base table).
    p2 = predictor.predict(PC, history, path)
    assert (p2.provider, p2.alt_provider) == (0, -1)
    assert p2.weak
    assert p2.taken is False            # alt (base counter 3) says not taken
    predictor.update(PC, False, p2)     # correct: comp0 3->2, weak trains base 3->2
    assert _entry(predictor, *slot0).counter == 2
    assert predictor._base[p2.base_index] == 2

    # 4. Strong-enough comp 0 entry mispredicts a taken flip: a taken entry
    #    (counter 4) is allocated in the longer-history comp 1.
    p3 = predictor.predict(PC, history, path)
    assert (p3.provider, p3.taken, p3.weak) == (0, False, False)
    predictor.update(PC, True, p3)
    assert _entry(predictor, *slot0).counter == 3
    slot1 = (1, p3.indices[1])
    entry1 = _entry(predictor, *slot1)
    assert entry1.valid and (entry1.counter, entry1.useful) == (4, 0)

    # 5. Comp 1 (longest history) now provides; it is freshly allocated and
    #    weak, so the alternate (comp 0, counter 3 -> not taken) overrides.
    p4 = predictor.predict(PC, history, path)
    assert (p4.provider, p4.alt_provider) == (1, 0)
    assert p4.taken is False
    predictor.update(PC, True, p4)      # provider counter 4 -> 5
    assert _entry(predictor, *slot1).counter == 5

    # 6. Comp 1 is strong now: prediction taken, alternate disagrees, and a
    #    correct outcome finally moves the useful counter.
    p5 = predictor.predict(PC, history, path)
    assert (p5.provider, p5.taken, p5.weak) == (1, True, False)
    assert p5.alt_taken is False
    predictor.update(PC, True, p5)
    assert _entry(predictor, *slot1).useful == 1


def test_tage_useful_counter_decrements_on_wrong_provider():
    predictor = _small_tage()
    history, path = _fresh_histories()
    # Recreate the end state of the worked example: comp1 strong + useful=1.
    for taken in (False, False, True, True, True):
        prediction = predictor.predict(PC, history, path)
        predictor.update(PC, taken, prediction)
    prediction = predictor.predict(PC, history, path)
    slot1 = (1, prediction.indices[1])
    assert _entry(predictor, *slot1).useful == 1
    # Provider says taken, alternate says not taken, outcome not taken:
    # provider was wrong while differing from the alternate -> useful 1 -> 0.
    predictor.update(PC, False, prediction)
    assert _entry(predictor, *slot1).useful == 0


def test_tage_history_changes_component_indices():
    predictor = _small_tage()
    history, path = _fresh_histories()
    p_before = predictor.predict(PC, history, path)
    for outcome in (True, False, True, True):
        history.push(outcome)
        path.push(PC)
    p_after = predictor.predict(PC, history, path)
    assert p_before.base_index == p_after.base_index     # PC-indexed only
    assert p_before.indices != p_after.indices           # history-hashed


def test_tage_storage_matches_hand_sum():
    predictor = _small_tage()
    # base: 16 * 3; components: 16 * (8 + 3 + 2) each.
    assert predictor.storage_bits() == 16 * 3 + 2 * 16 * 13


def test_tage_snapshot_roundtrip_preserves_predictions():
    predictor = _small_tage()
    history, path = _fresh_histories()
    for taken in (False, False, True, True, True):
        prediction = predictor.predict(PC, history, path)
        predictor.update(PC, taken, prediction)
    restored = _small_tage()
    restored.restore_snapshot(predictor.to_snapshot())
    original = predictor.predict(PC, history, path)
    clone = restored.predict(PC, history, path)
    assert (original.taken, original.provider, original.weak) == \
        (clone.taken, clone.provider, clone.weak)


def _train(predictor: TageBranchPredictor, outcomes) -> None:
    history, path = _fresh_histories()
    for taken in outcomes:
        prediction = predictor.predict(PC, history, path)
        predictor.update(PC, taken, prediction)
        history.push(taken)
        path.push(PC)


def test_tage_construction_allocates_no_per_entry_objects():
    # Every Core builds a fresh predictor; per-entry objects would hand
    # thousands of container objects to the garbage collector each time.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        predictor = TageBranchPredictor()
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    config = predictor.config
    assert config.base_entries + sum(component.entries
                                     for component in config.components) > 5_000
    assert added < 100


def test_tage_snapshots_are_values():
    predictor = _small_tage()
    _train(predictor, (False, False, True, True, True))
    snapshot = predictor.to_snapshot()
    frozen = copy.deepcopy(snapshot)

    # Training the source after the capture leaves the snapshot alone.
    _train(predictor, (False, True, False, False, True, False))
    assert predictor.to_snapshot() != frozen
    assert snapshot == frozen

    # Two predictors restored from one snapshot share no state.
    first, second = _small_tage(), _small_tage()
    first.restore_snapshot(snapshot)
    second.restore_snapshot(snapshot)
    _train(first, (True, False, False, True, False, True))
    assert first.to_snapshot() != frozen
    assert second.to_snapshot() == frozen
    assert snapshot == frozen


#: A reduced geometry whose useful counters age every 512 updates.
_AGING_TAGE = TageConfig(
    base_entries=64,
    components=(TageComponentConfig(16, 6, 3), TageComponentConfig(16, 7, 9),
                TageComponentConfig(32, 8, 21)),
    useful_reset_period=512,
)


def _stream_digest(config: TageConfig | None, steps: int, periods: tuple[int, ...],
                   restore_at: int | None = None) -> str:
    """SHA-256 over every prediction of a seeded loop-like branch stream.

    One branch per period runs in a loop; each is taken except on every
    ``period``-th iteration, and 3% of outcomes are flipped, so the longer
    history components get allocated and provide.  At ``restore_at`` the
    predictor is replaced by a fresh one restored from its snapshot.
    """
    rng = random.Random(7)
    pcs = [0x1000 + 4 * rng.randrange(1 << 14) for _ in periods]
    predictor = TageBranchPredictor(config)
    history, path = _fresh_histories()
    digest = hashlib.sha256()
    for step in range(steps):
        if step == restore_at:
            restored = TageBranchPredictor(config)
            restored.restore_snapshot(predictor.to_snapshot())
            predictor = restored
        iteration, slot = divmod(step, len(pcs))
        pc = pcs[slot]
        taken = iteration % periods[slot] != 0
        if rng.random() < 0.03:
            taken = not taken
        p = predictor.predict(pc, history, path)
        digest.update(repr((p.taken, p.provider, p.provider_index, p.alt_taken,
                            p.weak)).encode())
        predictor.update(pc, taken, p)
        history.push(taken)
        path.push(pc)
    return digest.hexdigest()


_STREAMS = {
    "default": (None, 8_000, (5, 13, 24, 31),
                "878b9e27b51a6391887ef4b10161f153afbf48a27e8ad3865f682cec8914d512"),
    "aging": (_AGING_TAGE, 3_000, (3, 5, 8),
              "676097e8c7a205145b5e6dcf2bbf6734a1b14cc4ab97990a767b59c468f9dd51"),
}


@pytest.mark.parametrize("name", sorted(_STREAMS))
def test_tage_prediction_stream_is_pinned(name):
    config, steps, periods, expected = _STREAMS[name]
    assert _stream_digest(config, steps, periods) == expected
    # A predictor restored mid-stream continues the stream identically.
    assert _stream_digest(config, steps, periods, restore_at=steps // 2 + 3) == expected


# ---------------------------------------------------------------------------
# Lookup hash memo
# ---------------------------------------------------------------------------


def _direct_tage_hashes(config: TageConfig, pc: int, history: int, path: int):
    geometry = [(c.history_bits, c.entries.bit_length() - 1, c.tag_bits)
                for c in config.components]
    return (tuple(mix_hash(pc, history, h, path, config.path_bits, i) for h, i, _ in geometry),
            tuple(tag_hash(pc, history, h, t) for h, _, t in geometry))


def _direct_distance_hashes(predictor: TageDistancePredictor, pc: int, history: int,
                            path: int):
    config = predictor.config
    indices = [(pc >> 2) % config.base_entries]
    tags = [((pc >> 2) // config.base_entries) & ((1 << config.base_tag_bits) - 1)]
    for entries, h, t in zip(config.component_entries, config.component_history_bits,
                             config.component_tag_bits):
        indices.append(mix_hash(pc, history, h, path, config.path_bits,
                                entries.bit_length() - 1))
        tags.append(tag_hash(pc, history, h, t))
    return tuple(indices), tuple(tags)


def _tage_lookup(predictor: TageBranchPredictor, pc: int, history: int, path: int):
    registers = _fresh_histories()
    registers[0].restore(HistoryCheckpoint(history, 256))
    registers[1].restore(HistoryCheckpoint(path, 32))
    prediction = predictor.predict(pc, *registers)
    # The history registers hold 256 and 32 bits: hash what they hold.
    expected = _direct_tage_hashes(predictor.config, pc, history, path)
    return (prediction.indices, prediction.tags), expected


def _distance_lookup(predictor: TageDistancePredictor, pc: int, history: int, path: int):
    prediction = predictor.predict(pc, history, path)
    return ((prediction.indices, prediction.tags),
            _direct_distance_hashes(predictor, pc, history, path))


def _lookup_triples(seed: int, count: int) -> list[tuple[int, int, int]]:
    """Random (pc, history, path) triples with bits set far above every
    mask, each followed by a twin that differs only in those high bits."""
    rng = random.Random(seed)
    triples = []
    for _ in range(count):
        pc, history, path = rng.getrandbits(64), rng.getrandbits(256), rng.getrandbits(32)
        triples.append((pc, history, path))
        triples.append((pc ^ (rng.getrandbits(32) << 32),
                        history ^ (rng.getrandbits(120) << 136),
                        path ^ (rng.getrandbits(16) << 16)))
    return triples


_PREDICTORS = {"tage": (TageBranchPredictor, _tage_lookup),
               "distance": (TageDistancePredictor, _distance_lookup)}


@pytest.mark.parametrize("name", sorted(_PREDICTORS))
def test_hash_memo_matches_direct_hashes(name, monkeypatch):
    """A lookup's memoized indices and tags equal the per-component
    ``mix_hash``/``tag_hash`` of the unmasked inputs, on a cold memo, on a
    warm one, and after the bound has cleared it."""
    make, lookup = _PREDICTORS[name]
    predictor = make()
    memo = predictor._memo
    memo.table.clear()
    triples = _lookup_triples(seed=len(name), count=200)

    cold = []
    for pc, history, path in triples:
        hashes, expected = lookup(predictor, pc, history, path)
        assert hashes == expected, (name, pc, history, path)
        cold.append(hashes)
    # Twins differ only in bits no hash reads, so they share an entry.
    assert len(memo.table) == len(triples) // 2

    # Warm: every lookup is answered from the memo, with the same tuples.
    for (pc, history, path), first in zip(triples, cold):
        hashes, expected = lookup(predictor, pc, history, path)
        assert hashes == expected
        assert hashes[0] is first[0] and hashes[1] is first[1]
    assert len(memo.table) == len(triples) // 2

    # A bound below the working set clears the memo over and over: new
    # triples evict the old ones, which then miss and are hashed again.
    monkeypatch.setattr(memo, "bound", 16)
    for pc, history, path in _lookup_triples(seed=99, count=50) + triples:
        hashes, expected = lookup(predictor, pc, history, path)
        assert hashes == expected
        assert len(memo.table) <= 16


def test_predictors_share_one_memo_per_geometry():
    assert TageBranchPredictor()._memo is TageBranchPredictor()._memo
    assert TageDistancePredictor()._memo is TageDistancePredictor()._memo
    assert _small_tage()._memo is not TageBranchPredictor()._memo


# ---------------------------------------------------------------------------
# Instruction distance predictor
# ---------------------------------------------------------------------------


def test_distance_predictor_construction_allocates_no_per_entry_objects():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        TageDistancePredictor()
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert added < 100


def test_distance_predictor_learns_and_restores():
    """A repeated distance becomes confident; a restored copy predicts the
    same, and its snapshot is a value."""
    predictor = TageDistancePredictor()
    history, path = 0b1011, 0x2A
    for _ in range(20):
        prediction = predictor.predict(PC, history, path)
        predictor.train(PC, history, path, 7, prediction)
    prediction = predictor.predict(PC, history, path)
    assert prediction.usable and prediction.distance == 7

    snapshot = predictor.to_snapshot()
    frozen = copy.deepcopy(snapshot)
    restored = TageDistancePredictor()
    restored.restore_snapshot(snapshot)
    assert restored.predict(PC, history, path) == prediction

    # A different distance resets the provider's confidence.
    predictor.train(PC, history, path, 9, prediction)
    assert not predictor.predict(PC, history, path).usable
    assert snapshot == frozen
    assert restored.predict(PC, history, path) == prediction


# ---------------------------------------------------------------------------
# Branch target buffer
# ---------------------------------------------------------------------------


def test_btb_lru_replacement_within_a_set():
    # 4 entries, 2 ways -> 2 sets; pcs 0, 8, 16 all map to set 0.
    btb = BranchTargetBuffer(entries=4, ways=2)
    btb.update(0, 100)
    btb.update(8, 200)
    assert btb.lookup(0) == 100        # refresh: LRU order now [8, 0]
    btb.update(16, 300)                # evicts 8
    assert btb.lookup(8) is None
    assert btb.lookup(0) == 100
    assert btb.lookup(16) == 300
    assert (btb.hits, btb.misses) == (3, 1)


def test_btb_update_refreshes_existing_entry():
    btb = BranchTargetBuffer(entries=4, ways=2)
    btb.update(0, 100)
    btb.update(8, 200)
    btb.update(0, 104)                 # re-update: new target, MRU position
    btb.update(16, 300)                # must evict 8, not 0
    assert btb.lookup(0) == 104
    assert btb.lookup(8) is None


def test_btb_validation():
    with pytest.raises(ValueError):
        BranchTargetBuffer(entries=5, ways=2)
    with pytest.raises(ValueError):
        BranchTargetBuffer(entries=0, ways=1)


# ---------------------------------------------------------------------------
# Return address stack
# ---------------------------------------------------------------------------


def test_ras_push_pop_lifo():
    ras = ReturnAddressStack(depth=4)
    ras.push(0x100)
    ras.push(0x200)
    assert ras.to_snapshot()[-1] == 0x200
    assert ras.pop() == 0x200
    assert ras.pop() == 0x100
    assert len(ras) == 0


def test_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(depth=2)
    ras.push(0x100)
    ras.push(0x200)
    ras.push(0x300)                    # overflow: 0x100 is lost
    assert ras.overflows == 1
    assert ras.pop() == 0x300
    assert ras.pop() == 0x200
    assert ras.pop() is None           # 0x100 is gone -> underflow
    assert ras.underflows == 1


def test_ras_snapshot_roundtrip_and_depth_check():
    ras = ReturnAddressStack(depth=4)
    for address in (0x100, 0x200, 0x300):
        ras.push(address)
    restored = ReturnAddressStack(depth=4)
    restored.restore_snapshot(ras.to_snapshot())
    assert restored.pop() == 0x300 and restored.pop() == 0x200
    with pytest.raises(ValueError):
        ReturnAddressStack(depth=2).restore_snapshot([1, 2, 3])

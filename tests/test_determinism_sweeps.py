"""Determinism-tier Hypothesis sweeps: replay, fencing, janitor shards.

These are the store/partition invariants the fleet's correctness story
rests on, swept at the :data:`~strategies.DETERMINISM_SETTINGS` tier
(hundreds of examples) because a single counterexample means silently
divergent tuning state:

* **Replay** — a delta chain read back from disk is exactly the record
  sequence that was appended, in order, for any chain length, payload
  shape, segment-roll size, and compaction point.
* **Fencing** — the store admits a writer's token iff it is not older
  than any token already admitted; a zombie's append is rejected the
  moment a successor has written with a newer token.
* **Janitor shards** — for any namespace and shard count, the tenants
  each shard's janitor prunes or re-points are exactly its stride of
  the sorted namespace, the k slices are disjoint and cover every
  tenant, and the k sharded sweeps leave a store exactly as one
  unsharded sweep does.

Each example builds its own throwaway store root (cheap: a few small
files), so the sweeps stay fast enough for tier-1.
"""

from __future__ import annotations

import itertools
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import CheckpointStore, Janitor
from repro.service.checkpoint import StaleFenceError

from strategies import DETERMINISM_SETTINGS, STANDARD_SETTINGS

# the janitor sweeps that write restore points cost ~10-20 ms an
# example, so they run at the standard tier's 100 examples
JANITOR_STORE_SETTINGS = STANDARD_SETTINGS

# small, picklable, equality-stable record payloads (no NaN: replay
# equality is ==, and NaN payloads would need bit-level comparison)
_records = st.lists(
    st.one_of(
        st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
        st.text(max_size=12),
        st.tuples(st.integers(min_value=0, max_value=99),
                  st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False))),
    max_size=6)

_tenant_names = st.sets(
    st.text(alphabet="abcdwxyz0123456789", min_size=1, max_size=8),
    min_size=1, max_size=12)


class TestReplaySweep:
    @given(records=_records, roll=st.integers(min_value=1, max_value=4))
    @DETERMINISM_SETTINGS
    def test_chain_replays_exactly_what_was_appended(self, records, roll):
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root, segment_roll_records=roll)
            store.save("t", {"base": True},
                       metadata={"n_observations": 0})
            for position, record in enumerate(records, start=1):
                store.save_delta("t", record, position=position)
            payload, meta, replayed = store.load_latest_chain("t")
            assert payload == {"base": True}
            assert replayed == records
            assert store.chain_length("t") == len(records)
            store.close()

    @given(records=_records, split=st.integers(min_value=0, max_value=6),
           roll=st.integers(min_value=1, max_value=3))
    @DETERMINISM_SETTINGS
    def test_compaction_point_never_changes_the_suffix(self, records,
                                                       split, roll):
        """Compacting mid-chain (new snapshot at any point) leaves the
        replayed suffix exactly the records appended after it."""
        split = min(split, len(records))
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root, segment_roll_records=roll)
            store.save("t", {"n": 0}, metadata={"n_observations": 0})
            for position, record in enumerate(records[:split], start=1):
                store.save_delta("t", record, position=position)
            # compaction: the replayed prefix becomes the new base
            store.save("t", {"n": split},
                       metadata={"n_observations": split})
            for position, record in enumerate(records[split:],
                                              start=split + 1):
                store.save_delta("t", record, position=position)
            payload, _meta, replayed = store.load_latest_chain("t")
            assert payload == {"n": split}
            assert replayed == records[split:]
            store.close()


class TestFencingSweep:
    @given(tokens=st.lists(st.integers(min_value=0, max_value=20),
                           min_size=1, max_size=6))
    @DETERMINISM_SETTINGS
    def test_store_admits_only_monotone_tokens(self, tokens):
        """For any token sequence: a write is admitted iff its token is
        >= every token already admitted, and the recorded high-water
        mark is exactly the max admitted."""
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root)
            high = None
            for i, token in enumerate(tokens):
                if high is not None and token < high:
                    with pytest.raises(StaleFenceError):
                        store.save("t", {"i": i}, fence=token)
                else:
                    store.save("t", {"i": i}, fence=token)
                    high = token
            assert store.recorded_fence("t") == high

    @given(appends=st.integers(min_value=1, max_value=4),
           bump=st.integers(min_value=1, max_value=5))
    @DETERMINISM_SETTINGS
    def test_zombie_writer_rejected_after_takeover(self, appends, bump):
        """However long the zombie's chain and whatever the successor's
        token distance, the zombie's next append fails — even through
        its already-open segment writer."""
        with tempfile.TemporaryDirectory() as root:
            zombie = CheckpointStore(root)
            zombie.save("t", {"base": 0}, metadata={"n_observations": 0},
                        fence=1)
            for position in range(1, appends + 1):
                zombie.save_delta("t", position, position=position,
                                  fence=1)
            successor = CheckpointStore(root)
            successor.save("t", {"base": 1},
                           metadata={"n_observations": appends},
                           fence=1 + bump)
            with pytest.raises(StaleFenceError):
                zombie.save_delta("t", appends + 1,
                                  position=appends + 1, fence=1)
            zombie.close()
            successor.close()


def _two_restore_points(root: str, names) -> CheckpointStore:
    """A store where every tenant keeps one snapshot too many for
    ``prune_keep=1``, so each janitor prunes every tenant it sweeps."""
    store = CheckpointStore(root)
    for name in names:
        for position in range(2):
            store.save(name, {"base": position},
                       metadata={"n_observations": position})
    return store


class TestShardMergeSweep:
    """k janitors, one per frontend of a k-frontend fleet, split the
    sorted tenant namespace by stride: shard i sweeps ``tenants[i::k]``."""

    @given(names=_tenant_names,
           shard_count=st.integers(min_value=1, max_value=8))
    @JANITOR_STORE_SETTINGS
    def test_strided_partition_disjoint_and_complete(self, names,
                                                     shard_count):
        """Pruning pass: shard i prunes exactly ``tenants[i::k]``, and
        the k slices are disjoint and cover the namespace."""
        with tempfile.TemporaryDirectory() as root:
            tenants = _two_restore_points(root, names).tenants()
            covered = []
            for index in range(shard_count):
                report = Janitor(root, prune_keep=1, shard_index=index,
                                 shard_count=shard_count).run_once()
                assert sorted(report.pruned) == tenants[index::shard_count]
                assert set(report.pruned.values()) <= {1}
                covered.extend(report.pruned)
            assert sorted(covered) == tenants

    @given(names=_tenant_names,
           shard_count=st.integers(min_value=1, max_value=5))
    @DETERMINISM_SETTINGS
    def test_directory_pass_is_the_strided_partition(self, names,
                                                     shard_count):
        """Directory pass: every tenant carries a dead frontend's hint,
        so each janitor tombstones every tenant in its slice.  Shard i's
        ``republished`` keys are exactly ``tenants[i::k]``, it skips the
        rest before any lease probe, and the k slices are disjoint and
        cover the namespace."""
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root)
            for name in names:
                store.tenant_dir(name).mkdir(parents=True)
                store.publish_owner(name, "dead-frontend")
            tenants = store.tenants()
            slices = []
            for index in range(shard_count):
                report = Janitor(root, shard_index=index,
                                 shard_count=shard_count).run_once()
                acted_on = set(report.republished)
                assert acted_on == set(tenants[index::shard_count])
                assert set(report.republished.values()) <= {None}
                assert report.skipped_out_of_shard == (len(tenants)
                                                      - len(acted_on))
                slices.append(acted_on)
            for a, b in itertools.combinations(slices, 2):
                assert not a & b
            assert set().union(*slices) == set(tenants)

    @given(names=_tenant_names,
           shard_count=st.integers(min_value=1, max_value=5),
           data=st.data())
    @JANITOR_STORE_SETTINGS
    def test_batch_shards_merge_back_exactly(self, names, shard_count,
                                             data):
        """On two identical stores, k sharded janitors together do
        exactly what one unsharded janitor does: their reports merge
        back to its report, and both stores end in the same state."""
        hinted = data.draw(st.sets(st.sampled_from(sorted(names))))
        with tempfile.TemporaryDirectory() as whole, \
                tempfile.TemporaryDirectory() as split:
            stores = []
            for root in (whole, split):
                store = _two_restore_points(root, names)
                for name in hinted:
                    store.publish_owner(name, "dead-frontend")
                stores.append(store)
            base = Janitor(whole, prune_keep=1).run_once()
            pruned, republished, skipped = {}, {}, 0
            for index in range(shard_count):
                report = Janitor(split, prune_keep=1, shard_index=index,
                                 shard_count=shard_count).run_once()
                assert not pruned.keys() & report.pruned.keys()
                pruned.update(report.pruned)
                republished.update(report.republished)
                skipped += report.skipped_out_of_shard
            assert pruned == base.pruned
            assert republished == base.republished == dict.fromkeys(hinted)
            assert skipped == (shard_count - 1) * len(names)
            assert stores[0].read_owners() == stores[1].read_owners()
            for name in names:
                assert ([path.name for path in stores[0].list(name)]
                        == [path.name for path in stores[1].list(name)])

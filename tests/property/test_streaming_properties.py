"""Property tests: where streaming and batch reconstruction must agree.

(a) Any subset of a fault-free record stream — records lost, in any
    arrival order — finalizes byte-identical to the batch analyzer over
    the same records: event numbers stay unique per chain, so the
    streaming engine applies each chain's records in the batch order.
(b) Any stream in which one record is delivered twice collides on an
    event number: the chain is never clean in the streaming DSCG, and
    the online monitor raises an ``abnormal`` alert for it.

Along the way the reconstructor's O(1) live counts must agree with a
scan of its open frames after every record.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import OnlineMonitor, dscg_to_json, reconstruct_from_records
from repro.analysis.streaming import StreamingReconstructor
from repro.core import MonitorMode
from tests.helpers import simulate
from tests.property.test_loss_resilience import call_trees


def _records(calls):
    return simulate(
        calls, mode=MonitorMode.LATENCY, fresh_chain_per_top_call=True
    ).records


def _batch_json(records):
    # The batch analyzer's chain order: ascending chain uuid.
    ordered = sorted(records, key=lambda r: (r.chain_uuid, r.event_seq))
    return dscg_to_json(reconstruct_from_records(ordered))


@given(
    calls=st.lists(call_trees(), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_any_subset_in_any_order_matches_batch(calls, data):
    records = _records(calls)
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(records), max_size=len(records))
    )
    surviving = [r for r, k in zip(records, keep) if k]
    arrival = data.draw(st.permutations(surviving))
    streaming = StreamingReconstructor()
    for record in arrival:
        streaming.ingest(record)
        frames = streaming.open_frames()
        assert streaming.open_frame_count() == len(frames)
        assert streaming.live_chain_count() == len({f.chain_uuid for f in frames})
    assert dscg_to_json(streaming.finalize()) == _batch_json(surviving)


@given(
    calls=st.lists(call_trees(), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_a_duplicated_record_flags_its_chain(calls, data):
    records = _records(calls)
    victim = data.draw(st.sampled_from(records))
    arrival = data.draw(st.permutations(records + [victim]))

    streaming = StreamingReconstructor()
    streaming.ingest_many(arrival)
    assert not streaming.finalize().chains[victim.chain_uuid].is_clean

    monitor = OnlineMonitor()
    monitor.ingest_many(arrival)
    assert any(
        alert.kind == "abnormal" and alert.chain_uuid == victim.chain_uuid
        for alert in monitor.alerts()
    )

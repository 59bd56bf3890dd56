"""RPC batching: planning, framing bytes, IPC savings, equivalence."""

import numpy as np
import pytest

from repro.core.gateway import ApiCall
from repro.core.rpc import (
    BATCH_HEADER_BYTES,
    BATCH_ITEM_FRAME_BYTES,
    BATCH_OFFSET_ENTRY_BYTES,
    FUSED_ITEM_HEADER_BYTES,
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    BatchChain,
    RpcBatchRequest,
    RpcBatchResponse,
    RpcRequest,
    RpcResponse,
)
from repro.serve import PREV, PipelineServer, plan_batches


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------

def _calls(n):
    return [ApiCall("opencv", f"api{i}") for i in range(n)]


def test_adjacent_same_partition_coalesce():
    groups = plan_batches(_calls(4), [1, 1, 1, 1])
    assert len(groups) == 1
    assert len(groups[0]) == 4
    assert groups[0].partition_index == 1


def test_partition_change_splits():
    groups = plan_batches(_calls(4), [0, 1, 1, 3])
    assert [(g.partition_index, len(g)) for g in groups] == \
        [(0, 1), (1, 2), (3, 1)]


def test_non_adjacent_same_partition_do_not_merge():
    # load, process, load again: the two loads must NOT merge across the
    # processing call (observation order is the state machine's input).
    groups = plan_batches(_calls(3), [0, 1, 0])
    assert [g.partition_index for g in groups] == [0, 1, 0]


def test_max_batch_calls_caps_run_length():
    groups = plan_batches(_calls(5), [1] * 5, max_batch_calls=2)
    assert [len(g) for g in groups] == [2, 2, 1]


def test_group_start_indices():
    groups = plan_batches(_calls(4), [0, 1, 1, 3])
    assert [g.start for g in groups] == [0, 1, 3]


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        plan_batches(_calls(2), [0])


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------

def _request(seq, payload):
    return RpcRequest(
        seq=seq, api_qualname="cv2.x", args=(payload,), kwargs=(),
        state_label="processing",
    )


def test_batch_request_bytes_are_exact():
    # Fused framing: one envelope, an offset-table entry plus a reduced
    # item header per request, payload bytes unchanged.
    first = _request(1, np.zeros(4))
    second = _request(2, np.zeros(8))
    batch = RpcBatchRequest(requests=(first, second))
    assert batch.nbytes == (
        BATCH_HEADER_BYTES
        + 2 * (BATCH_OFFSET_ENTRY_BYTES + FUSED_ITEM_HEADER_BYTES)
        + (first.nbytes - REQUEST_HEADER_BYTES)
        + (second.nbytes - REQUEST_HEADER_BYTES)
    )


def test_batch_request_fused_savings_vs_envelopes():
    # Savings vs the per-message-envelope framing: the old 16-byte item
    # frame plus the full request header, minus what fusing still pays.
    batch = RpcBatchRequest(
        requests=(_request(1, np.zeros(4)), _request(2, np.zeros(8)))
    )
    per_item = (
        BATCH_ITEM_FRAME_BYTES + REQUEST_HEADER_BYTES
        - BATCH_OFFSET_ENTRY_BYTES - FUSED_ITEM_HEADER_BYTES
    )
    assert per_item > 0
    assert batch.fused_savings == 2 * per_item
    envelope_nbytes = BATCH_HEADER_BYTES + sum(
        BATCH_ITEM_FRAME_BYTES + r.nbytes for r in batch.requests
    )
    assert envelope_nbytes - batch.nbytes == batch.fused_savings


def test_batch_response_bytes_are_exact():
    responses = (RpcResponse(seq=1, value=1.0), RpcResponse(seq=2, value=2.0))
    batch = RpcBatchResponse(responses=responses)
    assert batch.nbytes == (
        BATCH_HEADER_BYTES
        + 2 * (BATCH_OFFSET_ENTRY_BYTES + FUSED_ITEM_HEADER_BYTES)
        + sum(r.nbytes - RESPONSE_HEADER_BYTES for r in responses)
    )
    assert batch.fused_savings == 2 * (
        BATCH_ITEM_FRAME_BYTES + RESPONSE_HEADER_BYTES
        - BATCH_OFFSET_ENTRY_BYTES - FUSED_ITEM_HEADER_BYTES
    )


def test_chain_placeholder_is_tiny():
    assert BatchChain(1).nbytes == 16


# ----------------------------------------------------------------------
# End-to-end: batched vs sequential serving
# ----------------------------------------------------------------------

def _serve_one(batching, image_pipeline):
    server = PipelineServer(pool_size=1, batching=batching)
    rng = np.random.default_rng(7)
    server.kernel.fs.write_file("/data/in.png", rng.normal(size=(16, 16)))
    server.submit("t0", image_pipeline("/data/in.png", "/out/r0"))
    responses = server.drain()
    assert len(responses) == 1 and responses[0].ok, responses[0].error
    return server, responses[0]


def test_batching_preserves_results(image_pipeline):
    batched_server, batched = _serve_one(True, image_pipeline)
    plain_server, plain = _serve_one(False, image_pipeline)
    # Same pipeline outcome: the stored artifact exists in both runs.
    assert batched_server.kernel.fs.exists("/out/r0")
    assert plain_server.kernel.fs.exists("/out/r0")


def test_batching_sends_fewer_ipc_messages(image_pipeline):
    batched_server, _ = _serve_one(True, image_pipeline)
    plain_server, _ = _serve_one(False, image_pipeline)
    assert batched_server.kernel.ipc.messages < plain_server.kernel.ipc.messages
    stats = batched_server.batch_stats
    assert stats.messages_saved > 0
    # blur→threshold chains inside the processing agent's batch.
    assert stats.chains_local >= 1


def test_batching_is_faster(image_pipeline):
    batched_server, batched = _serve_one(True, image_pipeline)
    plain_server, plain = _serve_one(False, image_pipeline)
    assert batched.service_ns < plain.service_ns


@pytest.mark.parametrize("batching", [True, False])
def test_server_without_ldc_makes_no_lazy_copies(batching):
    """``FreePartConfig(ldc=False)`` holds on both crossings: every
    argument rides by value and is copied eagerly, batched or not."""
    from repro.core.runtime import FreePartConfig
    from repro.serve.bench import load_requests

    server = PipelineServer(
        config=FreePartConfig(ldc=False), pool_size=1, batching=batching
    )
    load_requests(server, 2, 2, 8)
    assert all(response.ok for response in server.drain())
    ipc = server.kernel.ipc
    assert ipc.lazy_copies == 0
    # Batching chains blur -> threshold inside the agent, which saves
    # one argument copy per request.
    assert ipc.nonlazy_copies == (20 if batching else 24)

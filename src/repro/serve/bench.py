"""Serving-throughput measurement: naive baseline vs pooled configurations.

Drives identical multi-tenant workloads through :class:`NaiveServer`
(one fresh runtime per request — the seed's deployment model) and
:class:`PipelineServer` at several ``(pool_size, batching)`` points, and
reports requests/sec and p50/p99 latency from the deterministic virtual
clock.  Both the ``repro serve-bench`` CLI subcommand and
``benchmarks/bench_serve_throughput.py`` are thin wrappers around
:func:`run_serving_benchmark`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gateway import PREV, ApiCall
from repro.serve.server import NaiveServer, PipelineServer


def standard_pipeline(path: str, out: str) -> List[ApiCall]:
    """The benchmark's 4-call pipeline: load → blur → threshold → store."""
    return [
        ApiCall("opencv", "imread", (path,)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
        ApiCall("opencv", "threshold", (PREV,)),
        ApiCall("opencv", "imwrite", (out, PREV)),
    ]


def load_requests(server, tenants: int, items: int, image_size: int) -> None:
    """The closed-loop serving fixture: ``tenants x items`` pipelines.

    Each input is a seeded random image written to the server's own
    filesystem just before its request is submitted, so the draw order
    and the submit order are fixed.
    """
    rng = np.random.default_rng(0)
    for t in range(tenants):
        for r in range(items):
            path = f"/data/tenant-{t}/in-{r}.png"
            server.kernel.fs.write_file(
                path, rng.normal(size=(image_size, image_size))
            )
            server.submit(
                f"tenant-{t}",
                standard_pipeline(path, f"/out/tenant-{t}/out-{r}.png"),
            )


def _measure(server, tenants: int, requests: int, image_size: int
             ) -> Dict[str, Any]:
    load_requests(server, tenants, requests, image_size)
    responses = server.drain()
    failed = [r for r in responses if not r.ok]
    if failed:
        raise RuntimeError(
            f"benchmark request failed: {failed[0].error}"
        )
    return server.stats()


def run_serving_benchmark(
    tenants: int = 8,
    requests_per_tenant: int = 2,
    pool_sizes: Sequence[int] = (1, 4),
    batching_modes: Sequence[bool] = (False, True),
    image_size: int = 16,
) -> Dict[str, Any]:
    """Measure every configuration on the same workload; return JSON-able.

    The result's ``configs`` list always starts with the naive
    one-runtime-per-request baseline; each pooled entry carries
    ``speedup_vs_naive`` (requests/sec ratio).
    """
    naive = _measure(
        NaiveServer(), tenants, requests_per_tenant, image_size
    )
    configs: List[Dict[str, Any]] = [{
        "name": "naive (runtime per request)",
        "pool_size": 0,
        "batching": False,
        **_row(naive),
        "speedup_vs_naive": 1.0,
    }]
    naive_rps = naive["requests_per_second"]

    for pool_size in pool_sizes:
        for batching in batching_modes:
            server = PipelineServer(pool_size=pool_size, batching=batching)
            stats = _measure(server, tenants, requests_per_tenant, image_size)
            server.shutdown()
            configs.append({
                "name": (
                    f"pooled x{pool_size}, batching "
                    + ("on" if batching else "off")
                ),
                "pool_size": pool_size,
                "batching": batching,
                **_row(stats),
                "speedup_vs_naive": round(
                    stats["requests_per_second"] / naive_rps, 2
                ),
                "ipc_messages_saved": stats["batching_stats"][
                    "messages_saved"
                ],
                "fused_bytes_saved": stats["batching_stats"][
                    "fused_bytes_saved"
                ],
            })

    return {
        "workload": {
            "tenants": tenants,
            "requests_per_tenant": requests_per_tenant,
            "total_requests": tenants * requests_per_tenant,
            "pipeline_calls": len(standard_pipeline("x", "y")),
            "image_size": image_size,
        },
        "configs": configs,
    }


def _row(stats: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "requests_per_second": round(stats["requests_per_second"], 2),
        "p50_latency_ms": round(stats["p50_latency_ms"], 4),
        "p99_latency_ms": round(stats["p99_latency_ms"], 4),
        "makespan_seconds": round(stats["makespan_seconds"], 6),
    }


def best_pooled(result: Dict[str, Any]) -> Dict[str, Any]:
    """The highest-throughput pooled configuration in a result."""
    pooled = [c for c in result["configs"] if c["pool_size"] > 0]
    return max(pooled, key=lambda c: c["requests_per_second"])

"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` wraps named functions, methods and properties of the
package from outside it, so moving or deleting one of those names breaks the
traced benchmark run without failing any library test.  This installs the
tracer, runs one decode and one call of a wrapped method, and uninstalls it
again; and it checks that each wrapped stand-alone channel stage runs as one
call of the wrapped channel use.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import subspacecodes
from subspacecodes import SubspaceCode, codes, decode, random_subspace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_span_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    original = codes.SubspaceCode.__dict__["distances_to"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert codes.SubspaceCode.__dict__["distances_to"] is not original
        rng = np.random.default_rng(0)
        code = SubspaceCode([random_subspace(4, 1, rng) for _ in range(3)])
        subspacecodes.decode(code, code[1])
        code.distances_to(code[1])
    finally:
        tracer.uninstall()
    assert codes.SubspaceCode.__dict__["distances_to"] is original
    assert decode is subspacecodes.decode
    stats = spans.SpanStats(tracer)
    assert stats.calls("decoder.decode") == 1
    assert stats.calls("codes.distances_to") == 1


def test_each_channel_stage_nests_one_channel_use_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    rng = np.random.default_rng(1)
    U = random_subspace(6, 2, rng)
    tracer = spans.Tracer()
    try:
        tracer.install()
        # looked up on the package at call time, so the wrapped names run
        subspacecodes.erase(U, 1, rng)
        subspacecodes.random_error_subspace(U, 1, rng)
        subspacecodes.rotate(U, 0.5, rng)
    finally:
        tracer.uninstall()
    stats = spans.SpanStats(tracer)
    for stage in ("erase", "random_error_subspace", "rotate"):
        assert stats.calls(f"channel.{stage}") == 1
        assert stats.children("channel.apply_noisy_operator_channel",
                              f"channel.{stage}").tolist() == [1]
    assert stats.calls("channel.apply_noisy_operator_channel") == 3

"""The mining workload ``mine-enwiki-k2q8``: ``ours`` through :class:`KPlexEngine`.

A run works in rounds until its time is up (at least two).  Each round
enumerates every instance graph of the family, then builds and prepares each
instance again from scratch (``setup_s``, the median over all of them).

Each solve and set-up time is scaled to the reference host speed by the
probes taken around it (:func:`phases.timed`).  ``solve_ms`` is taken per
graph as the median of its rounds, then averaged over the graphs.

The traced run measures every layer on the same graphs: the search layers on
the solves, the graph layer on fresh builds, the parallel layer's fixed cost,
and the serving layers on instance 0 served over HTTP.
"""

from __future__ import annotations

from statistics import fmean, median
from typing import Dict, List

from repro import EnumerationRequest, KPlexEngine

from inputs import Family, family_for, plex_labels, recorded_reference, result_digest
from phases import SetupTimes, put_parallel_fixed, put_search_layers, rounds, timed
from report import RunResult, peak_rss_mb
from serve import probe_serving


class _Instances:
    """The relabelled instance graphs of one run and the answers it produced."""

    def __init__(self, engine: KPlexEngine, family: Family, seed: int) -> None:
        self.family = family
        self.seed = seed
        self.generator_seeds = family.generator_seeds()
        self.inputs = [family.instance(s, seed) for s in self.generator_seeds]
        for relabelled in self.inputs:
            engine.prepare(relabelled.graph, family.k, family.q)
        self.digests: List[List[str]] = [[] for _ in self.inputs]
        self._references: Dict[int, str] = {}

    def requests(self) -> List[EnumerationRequest]:
        return [
            EnumerationRequest(graph=relabelled.graph, k=self.family.k, q=self.family.q)
            for relabelled in self.inputs
        ]

    def digest(self, index: int, label_rows) -> str:
        """Digest of an answer on instance ``index``, in the generated labels."""
        original = self.inputs[index].original_labels
        return result_digest(original(labels) for labels in label_rows)

    def record(self, index: int, response) -> None:
        self.digests[index].append(self.digest(index, plex_labels(response.kplexes)))

    def reference(self, engine: KPlexEngine, index: int) -> str:
        """The recorded digest of the generated graph, else the ``fp`` answer's."""
        if index not in self._references:
            generator_seed = self.generator_seeds[index]
            reference = recorded_reference(self.family, generator_seed)
            if reference is None:
                baseline = engine.solve(
                    EnumerationRequest(
                        graph=self.family.build(generator_seed),
                        k=self.family.k, q=self.family.q, solver="fp",
                    )
                )
                reference = result_digest(plex_labels(baseline.kplexes))
            self._references[index] = reference
        return self._references[index]

    def verify(self, engine: KPlexEngine, result: RunResult) -> None:
        """Check every recorded answer against its graph's reference."""
        for index, digests in enumerate(self.digests):
            reference = self.reference(engine, index)
            what = f"{self.family.name} graph {self.generator_seeds[index]} seed {self.seed}"
            for digest in digests:
                result.check(digest == reference, f"{what}: result digest")

    def probe_setup(self, engine: KPlexEngine, setup: SetupTimes, first: bool) -> None:
        for generator_seed in self.generator_seeds:
            setup.probe(
                engine,
                lambda: self.family.instance(generator_seed, self.seed).graph,
                self.family.k, self.family.q, count_core=first,
            )


def run_mining(family: Family, seed: int, seconds: float, traced: bool, tiny: bool) -> RunResult:
    family = family_for(family, tiny)
    engine = KPlexEngine()
    instances = _Instances(engine, family, seed)
    if traced:
        return _run_traced(engine, instances, seconds)
    result = RunResult()
    requests = instances.requests()
    setup = SetupTimes()
    solves: List[List[float]] = [[] for _ in requests]
    for round_index in rounds(seconds):
        for index, request in enumerate(requests):
            _elapsed, scaled, response = timed(lambda: engine.solve(request))
            solves[index].append(scaled)
            instances.record(index, response)
            del response
        instances.probe_setup(engine, setup, round_index == 0)
    result.put("peak_rss_mb", peak_rss_mb(), "MiB")
    instances.verify(engine, result)
    result.put("setup_s", median(setup.scaled), "s")
    result.put("solve_ms", 1000.0 * fmean(median(times) for times in solves), "ms")
    result.put("ok_ratio", result.ok_ratio, "ratio")
    return result


def _run_traced(engine: KPlexEngine, instances: _Instances, seconds: float) -> RunResult:
    result = RunResult()
    family = instances.family
    put_search_layers(engine, instances.requests(), seconds, result, instances.record)
    setup = SetupTimes()
    for round_index in range(2):
        instances.probe_setup(engine, setup, round_index == 0)
    setup.put_layers(result)
    put_parallel_fixed(engine, result)  # leaves the process unpinned
    reference = instances.reference(engine, 0)
    probe_serving(
        instances.inputs[0].graph, family.k, family.q,
        lambda rows: instances.digest(0, rows) == reference,
        result,
    )
    instances.verify(engine, result)
    return result

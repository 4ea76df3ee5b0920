"""Tests for the tuning database, local search, PBQP solver and global search."""

import json

import numpy as np
import pytest

from repro.core import (
    CostModelMeasurer,
    DynamicProgrammingSearch,
    GlobalSearch,
    LocalSearch,
    NumpyMeasurer,
    PBQPProblem,
    TuningDatabase,
    TuningDatabaseMigrationError,
    TuningRecord,
    extract_dependency_graph,
    search_fingerprint,
    solve_pbqp,
)
from repro.core.global_search import ConvCandidate, ConvDependencyGraph, DependencyEdge
from repro.graph import infer_shapes
from repro.hardware import get_target
from repro.schedule import ConvSchedule, ConvWorkload

from tests.conftest import build_tiny_cnn


WORKLOAD = ConvWorkload(1, 32, 14, 14, 64, 3, 3, (1, 1), (1, 1))


class TestTuningDatabase:
    def test_put_get_best(self):
        db = TuningDatabase()
        records = [
            TuningRecord(ConvSchedule(16, 16, 8), 2e-3),
            TuningRecord(ConvSchedule(8, 8, 4), 1e-3),
        ]
        db.put(WORKLOAD, "cpu-x", records)
        assert db.best(WORKLOAD, "cpu-x").cost_s == 1e-3  # sorted ascending
        assert len(db.get(WORKLOAD, "cpu-x")) == 2
        assert (WORKLOAD, "cpu-x") in db and (WORKLOAD, "cpu-y") not in db

    def test_save_load_round_trip(self, tmp_path):
        db = TuningDatabase()
        db.put(WORKLOAD, "cpu-x", [TuningRecord(ConvSchedule(4, 8, 2, True), 5e-4)])
        path = tmp_path / "tuning.json"
        db.save(path)
        loaded = TuningDatabase.load(path)
        best = loaded.best(WORKLOAD, "cpu-x")
        assert best.schedule == ConvSchedule(4, 8, 2, True)
        assert best.cost_s == pytest.approx(5e-4)

    def test_indented_file_loads_the_same_records(self, tmp_path):
        """Files written before the compact format (``indent=2``) still load."""
        db = TuningDatabase()
        db.put(WORKLOAD, "cpu-x", [TuningRecord(ConvSchedule(4, 8, 2, True), 5e-4)])
        db.put(WORKLOAD, "cpu-y", [TuningRecord(ConvSchedule(8, 8, 4), 1e-3)], "p")
        compact = tmp_path / "compact.json"
        db.save(compact)
        payload = json.loads(compact.read_text(encoding="utf-8"))
        assert compact.read_text(encoding="utf-8") == json.dumps(
            payload, separators=(",", ":")
        )
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        assert TuningDatabase.load(indented).records == db.records
        assert TuningDatabase.load(compact).records == db.records

    def test_merge(self):
        a, b = TuningDatabase(), TuningDatabase()
        a.put(WORKLOAD, "x", [TuningRecord(ConvSchedule(8, 8, 4), 1.0)])
        b.put(WORKLOAD, "y", [TuningRecord(ConvSchedule(8, 8, 4), 2.0)])
        a.merge(b)
        assert len(a) == 2

    def test_round_trip_with_delimiter_in_names(self, tmp_path):
        """Keys are stored as JSON fields, so '|' in names cannot corrupt them."""
        db = TuningDatabase()
        cpu_name = "weird|cpu|name"
        params = "mb64-k8|custom"
        db.put(WORKLOAD, cpu_name, [TuningRecord(ConvSchedule(8, 16, 4), 3e-4)], params)
        path = tmp_path / "tuning.json"
        db.save(path)
        loaded = TuningDatabase.load(path)
        best = loaded.best(WORKLOAD, cpu_name, params)
        assert best is not None
        assert best.schedule == ConvSchedule(8, 16, 4)
        assert loaded.records == db.records

    def test_legacy_unversioned_file_fails_loudly(self, tmp_path):
        """A v1 file ('workload|cpu' keys, no version) raises a migration error."""
        legacy = {
            f"{WORKLOAD.key()}|cpu-x": [
                {"schedule": ConvSchedule(8, 8, 4).to_dict(), "cost_s": 1e-3}
            ]
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy), encoding="utf-8")
        with pytest.raises(TuningDatabaseMigrationError, match="legacy"):
            TuningDatabase.load(path)

    def test_future_schema_version_fails_loudly(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 99, "entries": []}))
        with pytest.raises(TuningDatabaseMigrationError, match="schema version 99"):
            TuningDatabase.load(path)

    def test_v2_file_migrates_and_round_trips(self, tmp_path):
        """A v2 file (flat entries list) loads via the registered migration,
        loses no records, and re-saves as the per-target v3 grouping."""
        from repro.core import SCHEMA_VERSION

        record = TuningRecord(ConvSchedule(8, 16, 4, True), 3e-4)
        v2 = {
            "schema_version": 2,
            "entries": [
                {
                    "workload": WORKLOAD.key(),
                    "cpu": "cpu-x",
                    "params": "mb64-k8",
                    "records": [record.to_dict()],
                },
                {
                    "workload": WORKLOAD.key(),
                    "cpu": "cpu-y",
                    "params": "",
                    "records": [record.to_dict()],
                },
            ],
        }
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps(v2), encoding="utf-8")

        migrated = TuningDatabase.load(path)
        assert len(migrated) == 2
        assert migrated.best(WORKLOAD, "cpu-x", "mb64-k8").schedule == record.schedule
        assert migrated.best(WORKLOAD, "cpu-y").cost_s == pytest.approx(3e-4)
        assert sorted(migrated.cpu_names()) == ["cpu-x", "cpu-y"]

        # Round trip: the migrated database persists as v3 and reloads equal.
        migrated.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["targets"]) == {"cpu-x", "cpu-y"}
        reloaded = TuningDatabase.load(path)
        assert reloaded.records == migrated.records

    def test_database_pickles_without_lock(self):
        import pickle

        db = TuningDatabase()
        db.put(WORKLOAD, "cpu-x", [TuningRecord(ConvSchedule(8, 16, 4), 1e-3)])
        clone = pickle.loads(pickle.dumps(db))
        assert clone.records == db.records
        # The clone has a working lock of its own (put would deadlock or
        # crash otherwise).
        clone.put(WORKLOAD, "cpu-y", [TuningRecord(ConvSchedule(8, 8, 4), 2e-3)])
        assert len(clone) == 2 and len(db) == 1

    def test_duplicate_migration_registration_rejected(self):
        from repro.core import register_migration

        with pytest.raises(ValueError, match="already"):
            register_migration(2)(lambda payload: payload)

    def test_params_fingerprint_separates_entries(self):
        db = TuningDatabase()
        db.put(WORKLOAD, "cpu-x", [TuningRecord(ConvSchedule(8, 8, 4), 1.0)], "fp-a")
        assert db.get(WORKLOAD, "cpu-x", "fp-b") is None
        assert db.get(WORKLOAD, "cpu-x") is None  # default params differ too
        assert db.get(WORKLOAD, "cpu-x", "fp-a") is not None
        assert (WORKLOAD, "cpu-x", "fp-a") in db
        assert (WORKLOAD, "cpu-x", "fp-b") not in db

    def test_search_fingerprint_encodes_all_knobs(self):
        base = search_fingerprint(64, 8, (32, 16, 8, 4, 2))
        assert base != search_fingerprint(None, 8, (32, 16, 8, 4, 2))
        assert base != search_fingerprint(64, 4, (32, 16, 8, 4, 2))
        assert base != search_fingerprint(64, 8, (16, 8))
        assert base == search_fingerprint(64, 8, [32, 16, 8, 4, 2])


class TestLocalSearch:
    def test_results_sorted_and_limited(self, skylake):
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=5)
        records = search.tune(WORKLOAD)
        assert len(records) == 5
        costs = [record.cost_s for record in records]
        assert costs == sorted(costs)

    def test_best_schedule_is_valid_and_sensible(self, skylake):
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name)
        best = search.best(WORKLOAD).schedule
        assert WORKLOAD.in_channels % best.ic_bn == 0
        assert WORKLOAD.out_channels % best.oc_bn == 0
        # On AVX-512 the best output block should use full 16-lane vectors.
        assert best.oc_bn % 16 == 0

    def test_database_caching_avoids_research(self, skylake):
        db = TuningDatabase()
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, database=db)
        first = search.tune(WORKLOAD)
        assert len(db) == 1
        second = search.tune(WORKLOAD)
        assert [r.schedule for r in first] == [r.schedule for r in second]

    def test_tune_all_deduplicates(self, skylake):
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name)
        db = search.tune_all([WORKLOAD, WORKLOAD, WORKLOAD])
        assert len(db) == 1

    def test_numpy_measurer_ranks_real_executions(self):
        """The empirical measurer actually runs the kernel and returns time."""
        workload = ConvWorkload(1, 8, 8, 8, 8, 3, 3, (1, 1), (1, 1))
        measurer = NumpyMeasurer(repeats=1)
        cost = measurer.measure(workload, ConvSchedule(8, 8, 4, True))
        assert cost > 0

    def test_numpy_measurer_does_not_reuse_full_tap_timings(self):
        """Timings recorded under the measurer's old fingerprint (a kernel
        that ran every tap) are a miss, so a small map whose dead taps are
        now trimmed is timed again."""
        workload = ConvWorkload(1, 8, 1, 1, 8, 3, 3, (1, 1), (1, 1))
        measurer = NumpyMeasurer(repeats=1)
        db = TuningDatabase()
        search = LocalSearch(measurer, "testcpu", database=db, top_k=2, max_block=8)
        stale_key = search.params_fingerprint.replace("-np2-r1-s0", "-np-r1-s0")
        assert stale_key != search.params_fingerprint
        db.put(workload, "testcpu", [TuningRecord(ConvSchedule(8, 8, 1), 1e9)], stale_key)
        records = search.tune(workload)
        assert len(records) == 2 and all(record.cost_s < 1e9 for record in records)
        assert db.get(workload, "testcpu", search.params_fingerprint) == records

    def test_best_differs_across_architectures(self):
        skylake = get_target("skylake")
        arm = get_target("arm")
        best_skl = LocalSearch(CostModelMeasurer(skylake), skylake.name).best(WORKLOAD)
        best_arm = LocalSearch(CostModelMeasurer(arm), arm.name).best(WORKLOAD)
        # ARM NEON has 4 lanes; its best oc_bn need not be 16-aligned like AVX-512.
        assert best_skl.schedule.oc_bn % 16 == 0
        assert best_arm.schedule.oc_bn % 4 == 0

    def test_batched_scoring_matches_per_candidate_path(self, skylake):
        """The vectorized batch pass ranks exactly like per-candidate calls."""

        class ScalarOnly:
            """CostModelMeasurer stripped of measure_batch (the seed path)."""

            def __init__(self, cpu):
                self._inner = CostModelMeasurer(cpu)

            def measure(self, workload, schedule):
                return self._inner.measure(workload, schedule)

        batched = LocalSearch(CostModelMeasurer(skylake), skylake.name).tune(WORKLOAD)
        scalar = LocalSearch(ScalarOnly(skylake), skylake.name).tune(WORKLOAD)
        assert [r.schedule for r in batched] == [r.schedule for r in scalar]
        assert [r.cost_s for r in batched] == [r.cost_s for r in scalar]

    def test_measure_batch_agrees_with_measure(self, skylake):
        measurer = CostModelMeasurer(skylake)
        schedules = [
            ConvSchedule(16, 16, 8, True),
            ConvSchedule(8, 32, 4, False),
            ConvSchedule(32, 8, 2, True),
        ]
        batch = measurer.measure_batch(WORKLOAD, schedules)
        for cost, schedule in zip(batch, schedules):
            assert cost == measurer.measure(WORKLOAD, schedule)

    def test_differently_configured_searches_do_not_share_cache(self, skylake):
        """Same DB, different top_k: the second search must not reuse entries."""
        db = TuningDatabase()
        wide = LocalSearch(CostModelMeasurer(skylake), skylake.name, database=db, top_k=8)
        narrow = LocalSearch(CostModelMeasurer(skylake), skylake.name, database=db, top_k=2)
        assert len(wide.tune(WORKLOAD)) == 8
        assert len(db) == 1
        assert len(narrow.tune(WORKLOAD)) == 2  # re-tuned, not truncated leftovers
        assert len(db) == 2  # both configurations cached side by side

    def test_differently_threaded_searches_do_not_share_cache(self, skylake):
        """Thread count changes rankings, so it must be part of the DB key."""
        db = TuningDatabase()
        serial = LocalSearch(
            CostModelMeasurer(skylake, num_threads=1), skylake.name, database=db
        )
        threaded = LocalSearch(
            CostModelMeasurer(skylake, num_threads=18), skylake.name, database=db
        )
        assert serial.params_fingerprint != threaded.params_fingerprint
        serial.tune(WORKLOAD)
        threaded.tune(WORKLOAD)
        assert len(db) == 2  # no silent reuse of the 1-thread rankings

    def test_tune_all_stays_serial_for_wallclock_measurers(self, skylake):
        """Every search runs on the calling thread (a wall-clock measurer's
        timings would be corrupted by contention)."""
        import threading as _threading

        thread_ids = set()

        class TimingMeasurer:
            def __init__(self, cpu):
                self._inner = CostModelMeasurer(cpu)

            def measure(self, workload, schedule):
                thread_ids.add(_threading.get_ident())
                return self._inner.measure(workload, schedule)

        workloads = [
            ConvWorkload(1, 8 * (i + 1), 8, 8, 16, 3, 3, (1, 1), (1, 1))
            for i in range(3)
        ]
        db = LocalSearch(TimingMeasurer(skylake), skylake.name).tune_all(workloads)
        assert thread_ids == {_threading.get_ident()}  # main thread only
        assert len(db) == 3


class TestPBQP:
    def test_single_node(self):
        problem = PBQPProblem()
        problem.add_node("a", [3.0, 1.0, 2.0])
        solution = solve_pbqp(problem)
        assert solution.choice("a") == 1
        assert solution.cost == 1.0

    def test_two_nodes_edge_dominates(self):
        problem = PBQPProblem()
        problem.add_node("a", [0.0, 0.1])
        problem.add_node("b", [0.0, 0.1])
        # Huge penalty unless both pick index 1.
        problem.add_edge("a", "b", [[10.0, 10.0], [10.0, 0.0]])
        solution = solve_pbqp(problem)
        assert solution.selection == {"a": 1, "b": 1}
        assert solution.cost == pytest.approx(0.2)

    def test_chain_matches_brute_force(self):
        rng = np.random.default_rng(0)
        problem = PBQPProblem()
        sizes = [3, 2, 4, 3]
        vectors = [rng.uniform(0, 1, size) for size in sizes]
        for index, vector in enumerate(vectors):
            problem.add_node(index, vector)
        matrices = []
        for index in range(len(sizes) - 1):
            matrix = rng.uniform(0, 1, (sizes[index], sizes[index + 1]))
            matrices.append(matrix)
            problem.add_edge(index, index + 1, matrix)

        solution = solve_pbqp(problem)

        best = float("inf")
        import itertools

        for assignment in itertools.product(*[range(s) for s in sizes]):
            cost = sum(vectors[i][assignment[i]] for i in range(len(sizes)))
            cost += sum(
                matrices[i][assignment[i], assignment[i + 1]]
                for i in range(len(sizes) - 1)
            )
            best = min(best, cost)
        # Chains only need R0/RI/RII reductions, so the result is exact.
        assert solution.cost == pytest.approx(best)
        assert solution.num_rn_reductions == 0

    def test_cycle_uses_rn_but_stays_near_optimal(self):
        rng = np.random.default_rng(1)
        problem = PBQPProblem()
        num_nodes, size = 6, 3
        vectors = [rng.uniform(0, 1, size) for _ in range(num_nodes)]
        for index, vector in enumerate(vectors):
            problem.add_node(index, vector)
        matrices = {}
        edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
        edges += [(0, 3), (1, 4)]  # chords force degree > 2
        for u, v in edges:
            matrix = rng.uniform(0, 1, (size, size))
            matrices[(u, v)] = matrix
            problem.add_edge(u, v, matrix)

        solution = solve_pbqp(problem)

        import itertools

        best = float("inf")
        for assignment in itertools.product(range(size), repeat=num_nodes):
            cost = sum(vectors[i][assignment[i]] for i in range(num_nodes))
            cost += sum(m[assignment[u], assignment[v]] for (u, v), m in matrices.items())
            best = min(best, cost)
        # Paper: the PBQP approximation achieves at least ~88% of the optimum;
        # equivalently its cost is within ~1/0.88 of the best.
        assert solution.cost <= best / 0.85 + 1e-9

    def test_evaluate_matches_manual_sum(self):
        problem = PBQPProblem()
        problem.add_node("a", [1.0, 2.0])
        problem.add_node("b", [3.0, 4.0])
        problem.add_edge("a", "b", [[0.0, 1.0], [2.0, 0.0]])
        assert problem.evaluate({"a": 0, "b": 1}) == pytest.approx(1 + 4 + 1)

    def test_bad_edges_rejected(self):
        problem = PBQPProblem()
        problem.add_node("a", [1.0, 2.0])
        with pytest.raises(KeyError):
            problem.add_edge("a", "missing", [[0.0], [0.0]])
        problem.add_node("b", [1.0])
        with pytest.raises(ValueError):
            problem.add_edge("a", "b", [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            problem.add_edge("a", "a", [[0.0, 1.0], [1.0, 0.0]])


class TestGlobalSearch:
    def _dependency_graph(self, skylake):
        graph = build_tiny_cnn()
        infer_shapes(graph)
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=4)
        return graph, extract_dependency_graph(graph, search)

    def test_dependency_extraction(self, skylake):
        _, dep = self._dependency_graph(skylake)
        assert set(dep.candidates) == {"conv1", "conv2a", "conv3"}
        pairs = {(edge.src, edge.dst) for edge in dep.edges}
        # conv1 feeds conv2a (through bn/relu/pool) and conv3 (through the add);
        # conv2a also feeds conv3; conv1 and conv2a are siblings via the add.
        assert ("conv1", "conv2a") in pairs
        assert ("conv2a", "conv3") in pairs or ("conv1", "conv3") in pairs

    def test_dp_assignment_covers_all_convs(self, skylake):
        _, dep = self._dependency_graph(skylake)
        schedules = DynamicProgrammingSearch(skylake, 18).solve(dep)
        assert set(schedules) == set(dep.candidates)
        for name, schedule in schedules.items():
            assert any(c.schedule == schedule for c in dep.candidates[name])

    def test_global_no_worse_than_greedy_local(self, skylake):
        graph, dep = self._dependency_graph(skylake)
        schedules = DynamicProgrammingSearch(skylake, 18).solve(dep)
        global_cost = dep.total_cost(schedules, skylake, 18)
        greedy = {name: cands[0].schedule for name, cands in dep.candidates.items()}
        greedy_cost = dep.total_cost(greedy, skylake, 18)
        assert global_cost <= greedy_cost + 1e-12

    def test_pbqp_close_to_dp(self, skylake):
        """Reproduces the paper's check: the approximation reaches >=88% of DP."""
        graph = build_tiny_cnn()
        infer_shapes(graph)
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=4)
        dp_result = GlobalSearch(skylake, search, method="dp").run(graph)
        pbqp_result = GlobalSearch(skylake, search, method="pbqp").run(build_and_infer())
        assert dp_result.total_cost_s > 0
        assert dp_result.total_cost_s / pbqp_result.total_cost_s >= 0.88

    def test_facade_reports_method_and_counts(self, skylake):
        graph = build_tiny_cnn()
        infer_shapes(graph)
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=3)
        result = GlobalSearch(skylake, search, method="auto").run(graph)
        assert result.method == "dp"
        assert result.num_convs == 3
        assert result.num_edges >= 2

    def test_empty_graph_returns_empty_result(self, skylake):
        from repro.graph import GraphBuilder

        builder = GraphBuilder("noconv")
        data = builder.input("data", (1, 4, 4, 4))
        graph = builder.build(builder.relu(data))
        infer_shapes(graph)
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name)
        result = GlobalSearch(skylake, search).run(graph)
        assert result.schedules == {} and result.method == "none"

    def test_edge_transform_cost_zero_when_blocks_match(self, skylake):
        edge = DependencyEdge("a", "b", tensor_bytes=1 << 20, kind="dataflow")
        from repro.core.global_search import _edge_transform_cost

        matched = _edge_transform_cost(
            edge, ConvSchedule(16, 16, 8), ConvSchedule(16, 16, 8), skylake, 8
        )
        mismatched = _edge_transform_cost(
            edge, ConvSchedule(16, 8, 8), ConvSchedule(16, 16, 8), skylake, 8
        )
        assert matched == 0.0 and mismatched > 0.0


def build_and_infer():
    graph = build_tiny_cnn()
    infer_shapes(graph)
    return graph


def build_diamond_cnn(image: int = 16):
    """conv_in fans out to two branch convs rejoined by a residual add."""
    from repro.graph import GraphBuilder

    builder = GraphBuilder("diamond")
    data = builder.input("data", (1, 8, image, image))
    stem = builder.conv2d(data, 16, 3, padding=1, name="conv_in")
    stem = builder.relu(stem)
    left = builder.conv2d(stem, 16, 3, padding=1, name="conv_left")
    right = builder.conv2d(stem, 16, 1, name="conv_right")
    joined = builder.elemwise_add(left, right, name="join")
    out = builder.conv2d(joined, 32, 1, name="conv_out")
    graph = builder.build(out)
    infer_shapes(graph)
    return graph


class TestGlobalSearchGraphShapes:
    """Diamond/residual structures, sibling accounting and edge cases."""

    def test_diamond_dp_vs_pbqp_parity(self, skylake):
        """On a diamond graph both solvers stay within the paper's ~88% bound."""
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=4)
        dp = GlobalSearch(skylake, search, method="dp").run(build_diamond_cnn())
        pbqp = GlobalSearch(skylake, search, method="pbqp").run(build_diamond_cnn())
        assert dp.num_convs == pbqp.num_convs == 4
        assert dp.total_cost_s > 0 and pbqp.total_cost_s > 0
        assert dp.total_cost_s / pbqp.total_cost_s >= 0.88
        assert pbqp.total_cost_s / dp.total_cost_s >= 0.88

    def test_residual_graph_has_sibling_edge(self, skylake):
        graph = build_diamond_cnn()
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=3)
        dep = extract_dependency_graph(graph, search)
        kinds = {(e.src, e.dst): e.kind for e in dep.edges}
        assert kinds.get(("conv_left", "conv_right")) == "sibling"

    def test_dp_backtrack_accounts_sibling_cost(self, skylake):
        """With a dominant sibling transform the DP must align oc_bn blocks.

        Exec times alone favour the mismatched pair (0.9 + 1.0 ms); the huge
        join tensor makes any oc_bn mismatch far more expensive, so both the
        forward sweep and the backtrack must propagate the matched choice.
        """
        dep = ConvDependencyGraph()
        oc16 = ConvSchedule(16, 16, 8)
        oc8 = ConvSchedule(16, 8, 8)
        dep.candidates["a"] = [ConvCandidate(oc8, 0.9e-3), ConvCandidate(oc16, 1.0e-3)]
        dep.candidates["b"] = [ConvCandidate(oc16, 1.0e-3), ConvCandidate(oc8, 1.05e-3)]
        dep.topo_order = ["a", "b"]
        dep.add_edge(DependencyEdge("a", "b", tensor_bytes=1 << 26, kind="sibling"))

        assignment = DynamicProgrammingSearch(skylake, 18).solve(dep)
        assert assignment["a"].oc_bn == assignment["b"].oc_bn == 8  # matched pair

        matched_cost = dep.total_cost(assignment, skylake, 18)
        greedy = {"a": oc8, "b": oc16}  # locally best but mismatched
        assert matched_cost == pytest.approx(0.9e-3 + 1.05e-3)
        assert dep.total_cost(greedy, skylake, 18) > matched_cost

    def test_dp_joint_minimization_of_parallel_edges(self, skylake):
        """A residual pair linked by BOTH a dataflow and a sibling edge must
        be minimized jointly — independent per-edge minima are unattainable
        and pick inconsistent predecessor choices."""
        import itertools

        dep = ConvDependencyGraph()
        x_a = ConvSchedule(16, 8, 4)   # oc 8
        x_b = ConvSchedule(16, 4, 4)   # oc 4
        y_a = ConvSchedule(8, 4, 4)    # ic 8 / oc 4
        y_b = ConvSchedule(4, 8, 4)    # ic 4 / oc 8
        dep.candidates["x"] = [ConvCandidate(x_a, 0.0), ConvCandidate(x_b, 1e-4)]
        dep.candidates["y"] = [ConvCandidate(y_a, 0.0), ConvCandidate(y_b, 0.0)]
        dep.topo_order = ["x", "y"]
        dep.add_edge(DependencyEdge("x", "y", tensor_bytes=1 << 20, kind="dataflow"))
        dep.add_edge(DependencyEdge("x", "y", tensor_bytes=1 << 22, kind="sibling"))

        assignment = DynamicProgrammingSearch(skylake, 18).solve(dep)
        dp_cost = dep.total_cost(assignment, skylake, 18)
        brute_force = min(
            dep.total_cost({"x": xs, "y": ys}, skylake, 18)
            for xs, ys in itertools.product((x_a, x_b), (y_a, y_b))
        )
        assert dp_cost == pytest.approx(brute_force)

    def test_single_conv_graph(self, skylake):
        from repro.graph import GraphBuilder

        builder = GraphBuilder("single")
        data = builder.input("data", (1, 8, 16, 16))
        graph = builder.build(builder.conv2d(data, 16, 3, padding=1, name="only"))
        infer_shapes(graph)
        search = LocalSearch(CostModelMeasurer(skylake), skylake.name)
        result = GlobalSearch(skylake, search).run(graph)
        assert result.num_convs == 1 and result.num_edges == 0
        # With no edges the global optimum is each conv's local optimum.
        from repro.costmodel.graph_cost import conv_workload_from_node

        workload = conv_workload_from_node(graph.op_nodes("conv2d")[0])
        assert result.schedules["only"] == search.best(workload).schedule

    def test_dataflow_edge_prices_transformed_tensor_on_pooled_chain(self, skylake):
        """Across a downsampling chain the edge prices the post-pool tensor
        (where AlterOpLayout inserts the transform), not the larger producer
        output."""
        from repro.graph import GraphBuilder

        builder = GraphBuilder("pooled")
        data = builder.input("data", (1, 8, 16, 16))
        x = builder.conv2d(data, 32, 3, padding=1, name="producer")
        x = builder.max_pool2d(x, 2, 2, name="pool")
        x = builder.conv2d(x, 32, 3, padding=1, name="consumer")
        graph = builder.build(x)
        infer_shapes(graph)

        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=2)
        dep = extract_dependency_graph(graph, search)
        (edge,) = [e for e in dep.edges if e.kind == "dataflow"]
        producer = next(n for n in graph.op_nodes("conv2d") if n.name == "producer")
        consumer = next(n for n in graph.op_nodes("conv2d") if n.name == "consumer")
        # Pooling halves H and W, so the transformed tensor is 4x smaller
        # than the producer's output.
        assert edge.tensor_bytes == consumer.inputs[0].spec.nbytes
        assert 4 * edge.tensor_bytes == producer.spec.nbytes

    def test_concat_sibling_edge_prices_branch_not_join(self, skylake):
        """A concat sibling pays a transform on its own slice, not the join."""
        from repro.graph import GraphBuilder

        builder = GraphBuilder("sibling_concat")
        data = builder.input("data", (1, 8, 16, 16))
        small = builder.conv2d(data, 8, 1, name="small")
        large = builder.conv2d(data, 32, 1, name="large")
        joined = builder.concat([small, large], name="cat")
        graph = builder.build(builder.relu(joined))
        infer_shapes(graph)

        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=2)
        dep = extract_dependency_graph(graph, search)
        (edge,) = [e for e in dep.edges if e.kind == "sibling"]
        small_node = next(n for n in graph.op_nodes("conv2d") if n.name == "small")
        cat_node = graph.op_nodes("concat")[0]
        assert edge.tensor_bytes == small_node.spec.nbytes
        assert edge.tensor_bytes < cat_node.spec.nbytes

    def test_concat_consumer_prices_each_producer_separately(self, skylake):
        """Multi-input consumers get per-producer tensor sizes on their edges."""
        from repro.graph import GraphBuilder

        builder = GraphBuilder("concat")
        data = builder.input("data", (1, 8, 16, 16))
        small = builder.conv2d(data, 8, 1, name="small")
        large = builder.conv2d(data, 32, 1, name="large")
        joined = builder.concat([small, large], name="cat")
        out = builder.conv2d(joined, 16, 1, name="consumer")
        graph = builder.build(out)
        infer_shapes(graph)

        search = LocalSearch(CostModelMeasurer(skylake), skylake.name, top_k=2)
        dep = extract_dependency_graph(graph, search)
        bytes_by_src = {
            e.src: e.tensor_bytes
            for e in dep.edges
            if e.kind == "dataflow" and e.dst == "consumer"
        }
        small_node = next(n for n in graph.op_nodes("conv2d") if n.name == "small")
        large_node = next(n for n in graph.op_nodes("conv2d") if n.name == "large")
        assert bytes_by_src["small"] == small_node.spec.nbytes
        assert bytes_by_src["large"] == large_node.spec.nbytes
        assert bytes_by_src["large"] == 4 * bytes_by_src["small"]

    def test_predecessor_index_tracks_added_edges(self):
        dep = ConvDependencyGraph()
        dep.candidates = {"a": [], "b": [], "c": []}
        dep.add_edge(DependencyEdge("a", "c", 128))
        assert [e.src for e in dep.predecessors("c")] == ["a"]
        assert dep.predecessors("b") == []
        dep.add_edge(DependencyEdge("b", "c", 256))  # index must pick this up
        assert [e.src for e in dep.predecessors("c")] == ["a", "b"]

    def test_total_cost_rejects_unknown_candidate(self, skylake):
        dep = ConvDependencyGraph()
        dep.candidates["a"] = [ConvCandidate(ConvSchedule(8, 8, 4), 1.0)]
        dep.topo_order = ["a"]
        with pytest.raises(KeyError):
            dep.total_cost({"a": ConvSchedule(4, 4, 2)}, skylake, 4)

    def test_total_cost_reflects_candidate_mutation(self, skylake):
        """Replacing a candidate list (same length) must not serve stale costs."""
        dep = ConvDependencyGraph()
        schedule = ConvSchedule(8, 8, 4)
        dep.candidates["a"] = [ConvCandidate(schedule, 1.0)]
        dep.topo_order = ["a"]
        assert dep.total_cost({"a": schedule}, skylake, 4) == pytest.approx(1.0)
        dep.candidates["a"] = [ConvCandidate(schedule, 5.0)]  # e.g. force re-tune
        assert dep.total_cost({"a": schedule}, skylake, 4) == pytest.approx(5.0)


# --------------------------------------------------------------------------- #
# solver-optimization parity gates (PR 7)
# --------------------------------------------------------------------------- #
def _reference_dp_solve(dep, cpu, num_threads):
    """The pre-vectorization DP backtrack: one choice-vector dict entry per
    edge instead of a stacked (P, K) matrix per node.  Kept as the byte-level
    reference the optimized solver must reproduce exactly."""
    from repro.core.global_search import _TransformTimeCache, _edge_cost_matrix

    transform_time = _TransformTimeCache(cpu, num_threads)
    predecessors = dep.predecessor_map()
    best_cost = {}
    choice = {}
    for name in dep.topo_order:
        candidates = dep.candidates[name]
        costs = np.array([c.exec_time_s for c in candidates], dtype=np.float64)
        matrices = {}
        for edge in predecessors.get(name, []):
            if edge.src not in best_cost:
                continue
            matrix = _edge_cost_matrix(
                edge, dep.candidates[edge.src], candidates, transform_time
            )
            if edge.src in matrices:
                matrices[edge.src] = matrices[edge.src] + matrix
            else:
                matrices[edge.src] = matrix
        for src, matrix in matrices.items():
            options = best_cost[src][:, None] + matrix
            best_k = options.argmin(axis=0)
            choice[(src, name)] = best_k
            costs += options[best_k, np.arange(len(candidates))]
        best_cost[name] = costs
    assignment = {}
    for name in reversed(dep.topo_order):
        if name not in assignment:
            assignment[name] = int(best_cost[name].argmin())
        j = assignment[name]
        for edge in predecessors.get(name, []):
            key = (edge.src, name)
            if key in choice and edge.src not in assignment:
                assignment[edge.src] = int(choice[key][j])
    return {
        name: dep.candidates[name][index].schedule
        for name, index in assignment.items()
    }


def _reference_solve_pbqp(problem):
    """The pre-optimization PBQP reduction loop: neighbour sets recomputed by
    scanning every remaining edge per iteration (instead of the solver's
    incremental adjacency index), with the same deterministic insertion-order
    node selection.  Scanning the insertion-ordered matrix table yields
    neighbours in exactly the order the incremental index maintains, so the
    two implementations must agree bit for bit."""
    vectors = {node: problem.vector(node).copy() for node in problem.nodes}
    matrices = {key: mat.copy() for key, mat in problem._matrices.items()}

    def neighbors(node):
        found = []
        for (a, b) in matrices:
            if a == node:
                found.append(b)
            elif b == node:
                found.append(a)
        return found

    def get_matrix(u, v):
        if (u, v) in matrices:
            return matrices[(u, v)]
        return matrices[(v, u)].T

    def pop_edge(u, v):
        if (u, v) in matrices:
            return matrices.pop((u, v))
        return matrices.pop((v, u)).T

    def add_edge(u, v, mat):
        if (u, v) in matrices:
            matrices[(u, v)] += mat
        elif (v, u) in matrices:
            matrices[(v, u)] += mat.T
        else:
            matrices[(u, v)] = mat

    stack = []
    remaining = dict.fromkeys(vectors)
    num_rn = 0

    def eliminate(node, decide):
        stack.append((node, decide))
        remaining.pop(node, None)

    while remaining:
        degree_of = {node: len(neighbors(node)) for node in remaining}
        r0_node = r1_node = r2_node = None
        for candidate in remaining:
            degree = degree_of[candidate]
            if degree == 0:
                r0_node = candidate
                break
            if degree == 1 and r1_node is None:
                r1_node = candidate
            elif degree == 2 and r2_node is None:
                r2_node = candidate
        if r0_node is not None:
            vector = vectors[r0_node]
            eliminate(r0_node, lambda _sel, _v=vector: int(np.argmin(_v)))
            continue
        if r1_node is not None:
            node = r1_node
            (neighbor,) = neighbors(node)
            mat = pop_edge(node, neighbor)
            vector = vectors[node]
            combined = vector[:, None] + mat
            vectors[neighbor] = vectors[neighbor] + combined.min(axis=0)
            best_for = combined.argmin(axis=0)
            eliminate(node, lambda sel, _n=neighbor, _b=best_for: int(_b[sel[_n]]))
            continue
        if r2_node is not None:
            node = r2_node
            u, v = neighbors(node)
            mat_u = pop_edge(node, u)
            mat_v = pop_edge(node, v)
            vector = vectors[node]
            combined = vector[:, None, None] + mat_u[:, :, None] + mat_v[:, None, :]
            delta = combined.min(axis=0)
            best_for = combined.argmin(axis=0)
            add_edge(u, v, delta)
            eliminate(
                node, lambda sel, _u=u, _v=v, _b=best_for: int(_b[sel[_u], sel[_v]])
            )
            continue
        num_rn += 1
        node = max(remaining, key=lambda n: (degree_of[n], repr(n)))
        vector = vectors[node]
        neighbor_list = neighbors(node)
        score = vector.copy()
        for neighbor in neighbor_list:
            mat = get_matrix(node, neighbor)
            score = score + (mat + vectors[neighbor][None, :]).min(axis=1)
        chosen = int(np.argmin(score))
        for neighbor in neighbor_list:
            mat = pop_edge(node, neighbor)
            vectors[neighbor] = vectors[neighbor] + mat[chosen, :]
        eliminate(node, lambda _sel, _c=chosen: _c)

    selection = {}
    for node, decide in reversed(stack):
        selection[node] = decide(selection)
    return selection, num_rn


class TestSolverOptimizationParity:
    """Byte-identity gates for the vectorized DP backtrack and the PBQP
    incremental-adjacency reduction loop, on the zoo models the paper
    evaluates (the SSD instance is the one that exercises RN reductions)."""

    MODELS = ("resnet-50", "vgg-19", "ssd-resnet-50")

    _dep_cache = {}

    @classmethod
    def _tuned_dep(cls, model_name):
        from repro.models import get_model

        if model_name not in cls._dep_cache:
            cpu = get_target("skylake")
            graph = get_model(model_name)
            infer_shapes(graph)
            search = LocalSearch(
                CostModelMeasurer(cpu), cpu.name, database=TuningDatabase(), top_k=4
            )
            cls._dep_cache[model_name] = (cpu, extract_dependency_graph(graph, search))
        return cls._dep_cache[model_name]

    @pytest.mark.parametrize("model_name", MODELS)
    def test_dp_backtrack_byte_identical(self, model_name):
        cpu, dep = self._tuned_dep(model_name)
        fast = DynamicProgrammingSearch(cpu, cpu.num_cores).solve(dep)
        reference = _reference_dp_solve(dep, cpu, cpu.num_cores)
        assert fast == reference

    @pytest.mark.parametrize("model_name", MODELS)
    def test_pbqp_reduction_byte_identical(self, model_name):
        cpu, dep = self._tuned_dep(model_name)
        search = LocalSearch(
            CostModelMeasurer(cpu), cpu.name, database=TuningDatabase(), top_k=4
        )
        problem = GlobalSearch(cpu, search)._build_pbqp(dep)
        fast = solve_pbqp(problem)
        reference_selection, reference_rn = _reference_solve_pbqp(problem)
        assert fast.selection == reference_selection
        assert fast.num_rn_reductions == reference_rn

    def test_pbqp_order_independent_of_insertion_hash(self):
        """Same instance built twice (different key objects) solves the same —
        the reduction order depends on insertion order only, never on
        ``PYTHONHASHSEED``-style set iteration."""
        def build():
            problem = PBQPProblem()
            for name in ("n0", "n1", "n2", "n3", "n4"):
                problem.add_node(name, [3.0, 1.0, 2.0])
            rng = np.random.default_rng(7)
            edges = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n0"),
                     ("n0", "n2"), ("n1", "n4")]
            for u, v in edges:
                problem.add_edge(u, v, rng.random((3, 3)))
            return problem

        first = solve_pbqp(build())
        second = solve_pbqp(build())
        assert first.selection == second.selection
        assert first.cost == second.cost

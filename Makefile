# Convenience targets for the reproduction repo.

.PHONY: install test bench experiments quick-experiments examples clean \
	endpoints-smoke chaos-smoke reliability-smoke fabric-smoke \
	fast-reliable-smoke sprinklers-smoke fec-smoke recovery-smoke \
	lint-endpoints

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Fast confidence check for the endpoint layer: unit/regression tests for
# the pipelines plus the cross-transport equivalence properties.
endpoints-smoke:
	PYTHONPATH=src pytest tests/transport/test_endpoint.py \
		tests/properties/test_endpoint_equivalence.py \
		tests/core/test_marker_codec.py

# Fast confidence check for the fault-injection and lifecycle machinery:
# the seeded chaos invariant suite, the lifecycle state-machine tests, the
# injector unit tests, and a quick pass of the chaos experiment itself.
chaos-smoke:
	PYTHONPATH=src pytest tests/properties/test_chaos_invariants.py \
		tests/transport/test_lifecycle.py \
		tests/sim/test_faults.py
	PYTHONPATH=src python -m repro.experiments.runner chaos --quick

# Fast confidence check for the reliability layer: ARQ unit/e2e tests,
# the marker/SACK codec, the persistent-loss chaos family, and a quick
# pass of the best-effort-vs-reliable experiment.
reliability-smoke:
	PYTHONPATH=src pytest tests/transport/test_reliability.py \
		tests/core/test_marker_codec.py
	PYTHONPATH=src pytest tests/properties/test_chaos_invariants.py \
		-k "persistent or duplicated"
	PYTHONPATH=src python -m repro.experiments.runner reliability --quick

# Fast confidence check for the multi-tenant session fabric: flow-table /
# scheduler unit tests (incl. the reliable-mode interop regression), the
# composed FQ x SRR fairness invariants, and the 512-flow quick fairness
# run (Jain >= 0.95 per tenant, weighted shares within 10%).
fabric-smoke:
	PYTHONPATH=src pytest tests/transport/test_fabric.py \
		tests/properties/test_fabric_invariants.py
	PYTHONPATH=src python -m repro.experiments.runner fabric --quick

# Fast confidence check for the fast path x reliability work: the
# per-mode ref/fast equivalence properties (clean, lossy, crash,
# persistent loss), the batched-ARQ unit tests, the vectorized-kernel
# tests (skipped gracefully when numpy is absent), then the sim
# benchmark gate — >= 3x fast-path speedup on every reliability mode
# with bit-identical delivery records (SIM_BENCH_* env knobs apply).
fast-reliable-smoke:
	PYTHONPATH=src pytest tests/properties/test_fast_path_equivalence.py \
		tests/transport/test_reliability.py \
		tests/core/test_numpy_kernel.py
	PYTHONPATH=src pytest benchmarks/test_bench_sim.py -x -q

# Fast confidence check for the synchronization-model work: the
# Sprinklers discipline unit/property tests (in-order proof obligations),
# the sync-model family tests (incl. the zero-marker-codec regression),
# then the quick head-to-head benchmark, which asserts reorder rate 0 and
# receiver high-water mark 0 for Sprinklers on every stable transport.
sprinklers-smoke:
	PYTHONPATH=src pytest tests/core/test_sprinklers.py \
		tests/transport/test_sync_model.py
	SPRINKLERS_BENCH_QUICK=1 PYTHONPATH=src pytest \
		benchmarks/test_bench_sprinklers.py -x -q

# Fast confidence check for the erasure-coding work: the GF(256) codec
# suite (numpy legs skip gracefully when numpy is absent), the FEC
# transport-layer unit tests (group lifecycle, gap-skip, escalation,
# pool contract), the e2e recovery properties (pure-fec acceptance,
# hybrid exactly-once + fairness envelope, hybrid <= ARQ
# retransmissions), then the quick sweep benchmark, which asserts
# hybrid goodput >= pure ARQ at every point (FEC_BENCH_* env knobs).
fec-smoke:
	PYTHONPATH=src pytest tests/core/test_fec.py \
		tests/transport/test_fec_transport.py \
		tests/properties/test_fec_properties.py
	FEC_BENCH_TOTAL_S=0.4 FEC_BENCH_RATES=0.03,0.10 \
		PYTHONPATH=src pytest benchmarks/test_bench_fec.py -x -q

# Fast confidence check for the crash-recovery work: the checkpoint
# codec/store/handshake unit suite (incl. the 39-cell registry
# serialization fixpoint), the kill/restart chaos properties (warm
# checkpointed restarts and the cold marker-resync leg), the extended
# fault-injector suite (corrupt_deliver, endpoint_crash, pool
# double-release guard), a quick pass of the recovery experiment, and the
# checkpoint codec micro-benchmark (asserts the 256-flow hybrid state's
# serialize -> restore -> serialize fixpoint; writes BENCH_checkpoint.json).
recovery-smoke:
	PYTHONPATH=src pytest tests/transport/test_recovery.py \
		tests/properties/test_recovery_properties.py \
		tests/sim/test_faults.py
	PYTHONPATH=src python -m repro.experiments.runner recovery --quick
	PYTHONPATH=src pytest benchmarks/test_bench_checkpoint.py -x -q

# Complexity/length guard for src/repro/transport/ and the striper pump
# (C901, PLR0915); ruff is not vendored — install it locally to run this
# target.
lint-endpoints:
	ruff check src/repro/transport/ src/repro/core/striper.py

experiments:
	python -m repro.experiments --all --json results.json

quick-experiments:
	python -m repro.experiments --all --quick

examples:
	python examples/quickstart.py
	python examples/custom_scheme.py
	python examples/dissimilar_links.py
	python examples/lossy_channels.py
	python examples/video_striping.py
	python examples/fault_tolerance.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +

# Developer conveniences for the NSF reproduction.

PYTHON ?= python3

.PHONY: install test faults chaos compression resume-smoke bench bench-check bench-baseline eval charts goldens check-goldens clean-traces examples all

# Parallel cell workers for the sweep runner (1 = sequential).
JOBS ?= 4

install:
	pip install -e . --no-build-isolation

test: faults chaos
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Fault-injection campaign: asserts zero silent corruption with
# ECC/parity protection on (and that faults corrupt silently without it).
faults:
	PYTHONPATH=src $(PYTHON) -c "from repro.evalx.resilience import main; raise SystemExit(main(['--check']))"

# Storage-fault chaos campaign: injects torn renames, truncated writes,
# bit flips, ENOSPC/EIO and stale locks into the trace cache, journal
# and results writes, and asserts every completed operation is
# byte-identical to a fault-free run.
chaos:
	PYTHONPATH=src $(PYTHON) -c "from repro.evalx.chaos import main; raise SystemExit(main(['--check']))"

# Spill-path compression sweep: golden check plus the traffic-reduction
# contract (some codec beats raw on every workload x granularity).
compression:
	PYTHONPATH=src $(PYTHON) -c "from repro.evalx.compression import main; raise SystemExit(main(['--check']))"

# Kill-and-resume chaos test: SIGKILLs a live sweep at random cell
# boundaries, resumes from the journal, and requires the final output
# to be byte-identical to an uninterrupted run.  Runs under the
# parallel scheduler so crash recovery is exercised with JOBS workers,
# and with the storage fault plane armed (--chaos-seed) so the resumed
# sweep also survives injected torn writes, EIO and worker crashes.
resume-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.evalx.runner smoke --experiment compression --scale 0.2 --kills 3 --jobs $(JOBS) --chaos-seed 5

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Perf-regression gates, six of them:
#   bench_hot_path        fast path vs tracked path, in-process ratios
#                         against BENCH_baseline.json;
#   bench_trace_replay    record / replay / sweep ratios, in-process;
#   bench_chaos_overhead  disarmed chaos-plane cost of a warm cell, <= 2%;
#   bench_oracle_grid     the oracle's design-space grid vs per-cell replay;
#   bench_e2e             the fig09-fig14 sweeps end to end (result memo
#                         and oracle vs per-figure event replay);
#   bench_core_ops        pytest-benchmark microbenchmarks of model ops.
# Same-box ratios cancel machine speed, not host noise: the 2% overhead
# bound of bench_chaos_overhead and the record/run overhead ceiling of
# bench_trace_replay are small absolute differences that a noisy host
# can exceed on an unchanged tree (ROADMAP item 5).
# Every gate runs, in order, even after one fails; the target prints
# each gate's PASS or FAIL and fails if any gate did.
BENCH_GATES = \
	"benchmarks/bench_hot_path.py --check" \
	"benchmarks/bench_trace_replay.py --check" \
	"benchmarks/bench_chaos_overhead.py --check" \
	"benchmarks/bench_oracle_grid.py --check" \
	"benchmarks/bench_e2e.py --check" \
	"-m pytest benchmarks/bench_core_ops.py --benchmark-only -q"

bench-check:
	@status=0; results=""; \
	for gate in $(BENCH_GATES); do \
		echo "== $$gate"; \
		if PYTHONPATH=src $(PYTHON) $$gate; then result=PASS; \
		else result=FAIL; status=1; fi; \
		results="$$results$$result  $$gate\n"; \
	done; \
	printf '%b' "bench-check gates:\n$$results"; \
	exit $$status

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hot_path.py --write-baseline
	PYTHONPATH=src $(PYTHON) benchmarks/bench_trace_replay.py --write-baseline
	PYTHONPATH=src $(PYTHON) benchmarks/bench_oracle_grid.py --write-baseline
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e2e.py --write-baseline

eval:
	PYTHONPATH=src $(PYTHON) -m repro.evalx

charts:
	PYTHONPATH=src $(PYTHON) -m repro.evalx --experiment fig12 --charts
	PYTHONPATH=src $(PYTHON) -m repro.evalx --experiment fig13 --charts

goldens:
	PYTHONPATH=src $(PYTHON) -m repro.evalx --write-goldens

check-goldens:
	PYTHONPATH=src $(PYTHON) -m repro.evalx --check-goldens

# Drop every cached workload trace (they are re-recorded on demand).
clean-traces:
	PYTHONPATH=src $(PYTHON) -m repro.trace.cache clear

examples:
	@for f in examples/*.py; do \
		echo "== $$f =="; \
		PYTHONPATH=src $(PYTHON) $$f > /dev/null || exit 1; \
	done; echo "all examples ran clean"

all: test bench check-goldens examples

# Developer entry points. `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test self-lint static-lint parallelism-lint coherence-lint smoke tune-check bandwidth-check benchmarks bench-tune bench-membw

check: lint test self-lint static-lint parallelism-lint coherence-lint smoke tune-check bandwidth-check

# ruff is optional in minimal environments; skip (loudly) when absent
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; skipping style lint (pip install ruff)"; \
	fi

# tier-1: everything but the trace-heavy slow markers
test:
	$(PYTHON) -m pytest -x -q -m "not slow"

# the repo's own lint front door (delegates to ruff when available)
self-lint:
	$(PYTHON) -m repro lint --self

# predictive-lint gate: legality (V), locality (L), and static (S)
# diagnostics across every registered program must equal the checked-in
# baseline byte for byte (refresh with `repro lint --static --all-apps
# --write-baseline lint-baseline.json` when a change is intentional)
static-lint:
	@$(PYTHON) -m repro lint --static --all-apps --write-baseline .lint-baseline.tmp.json > /dev/null; \
	if ! cmp -s .lint-baseline.tmp.json lint-baseline.json; then \
		echo "lint-baseline.json drift — current diagnostics differ from the checked-in baseline:"; \
		diff -u lint-baseline.json .lint-baseline.tmp.json | head -40; \
		rm -f .lint-baseline.tmp.json; exit 1; \
	fi; \
	rm -f .lint-baseline.tmp.json; \
	echo "lint-baseline.json is drift-free"

# parallelism gate: every loop axis of every registered program must get
# a definitive DOALL / reduction / serial verdict (no unknowns)
parallelism-lint:
	$(PYTHON) -m repro parallelism --all-apps --check

# coherence gate: every registered program gets a coherence profile
# (invalidation misses, true/false sharing) without error
coherence-lint:
	$(PYTHON) -m repro coherence --all-apps > /dev/null

# pass-manager smoke: the pipeline registry enumerates, lints clean, and a
# custom --passes pipeline compiles and simulates end to end
smoke:
	$(PYTHON) -m repro pipeline --list
	$(PYTHON) -m repro pipeline --lint
	$(PYTHON) -m repro report adi --passes inline,simplify -p N=16 --steps 1

# autotuner regression gate: the committed BENCH_tune.json best pipelines
# must never predict more misses than any named level, and every
# prediction cheap enough to recompute (<= 30s committed analysis cost)
# must reproduce under the current analyzer.  Expensive entries (sp's
# fused pipelines) stay frozen; refresh them with `make bench-tune`.
tune-check:
	$(PYTHON) -m repro tune --check --baseline BENCH_tune.json

# effective-bandwidth gate: every committed BENCH_membw.json row (memory
# traffic, DRAM row-buffer behaviour, energy) must reproduce exactly,
# and trace export/import must round-trip to an identical simulation
bandwidth-check:
	$(PYTHON) -m repro bench-membw --check --baseline BENCH_membw.json

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# refresh the committed autotuning artifact: full grid for the cheap
# programs, reduced grid for sp (its fused symbolic analysis runs for
# minutes; the named levels still bound the search there)
bench-tune:
	$(PYTHON) -m repro tune adi sweep3d fft tomcatv swim --json-out BENCH_tune.json
	$(PYTHON) -m repro tune sp --enablers "" --fusion-levels 0,1 --json-out BENCH_tune.json

# refresh the committed effective-bandwidth artifact (all six programs)
bench-membw:
	$(PYTHON) -m repro bench-membw --json-out BENCH_membw.json

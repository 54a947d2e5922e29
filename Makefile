# Developer entry points. `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test self-lint smoke perf-quick perf-selfcheck tune-check bandwidth-check benchmarks bench-tune bench-membw

check: lint test self-lint smoke perf-quick perf-selfcheck tune-check bandwidth-check

# ruff is optional in minimal environments; skip (loudly) when absent
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; skipping style lint (pip install ruff)"; \
	fi

# tier-1: everything but the trace-heavy slow markers.  It is also the
# all-apps gate — one analysis pass over the bundled programs instead of
# one per make target: tests/static/test_cli_static.py::
# test_lint_all_apps_against_checked_in_baseline regenerates the V/L/S/R
# diagnostics and compares them with lint-baseline.json byte for byte
# (refresh with `repro lint --static --all-apps --write-baseline
# lint-baseline.json` when a change is intentional) and asserts that no
# loop axis is left `unknown`; tests/static/test_coherence.py::
# test_profile_matches_golden pins a coherence profile for every program.
# --durations: every log ends with the slowest tests, the list ROADMAP's
# "tier-1 under three minutes" item reads
test:
	$(PYTHON) -m pytest -x -q -m "not slow" --durations=15

# the repo's own lint front door (delegates to ruff when available)
self-lint:
	$(PYTHON) -m repro lint --self

# pass-manager smoke: the pipeline registry enumerates, a custom
# --passes pipeline compiles and simulates end to end, the multi-level
# front door compiles three levels through the program's one pass trie
# (the timing table charges the shared preliminary prefix to fusion1
# alone), and the tuner's own default — 160 candidates, every pass
# certified — searches adi through it too (seconds; ~20 s if prefixes
# stop being shared, exit 1 if any candidate fails certification), once
# more under the multicore objective, where every candidate also runs
# the 4-thread enumerator and the MSI automaton (seconds: the
# enumerator's round-robin merge is arithmetic, not a step per access);
# then every example script end to end (a few seconds together)
smoke:
	$(PYTHON) -m repro pipeline --list
	$(PYTHON) -m repro report adi --passes inline,simplify -p N=16 --steps 1
	$(PYTHON) -m repro report adi --levels fusion1,fusion,new -p N=16 --steps 1 --timings
	$(PYTHON) -m repro tune adi --at N=24 --no-validate --no-cache
	$(PYTHON) -m repro tune adi --at N=24 --objective parallel-misses --threads 4 --no-validate --no-cache
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/custom_kernel.py
	$(PYTHON) examples/adi_study.py
	$(PYTHON) examples/regrouping_fig7.py
	$(PYTHON) examples/reuse_driven_study.py

# perf-ledger plumbing: all four workloads at small sizes through the
# traced run, so besides every count (perf/expected.json, oracle engines)
# the link-by-link chain is checked too — per item the address stream's
# fingerprint against the interpreter tracer's, the one check that sees a
# wrong *address* that happens to keep the counts; measures nothing,
# exits 1 on any failed check, < 1 min
perf-quick:
	$(PYTHON) perf/run.py --quick --trace 1

# the ledger's own tests (perf/ is outside tier-1's testpaths): the
# harness, compare.py's verdict rule and expected.json stay in step with
# the package between the PRs that spend the ledger, < 1 min
perf-selfcheck:
	$(PYTHON) -m pytest perf -q

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

.PHONY: all check check-seeds check-reach test perf bench bench-quick bench-timings bench-serve bench-scale bench-epoch bench-epoch-quick bench-pow bench-pow-quick regen-goldens fmt clean

all:
	dune build

# The local gate, as CI runs it: tests, seed sweep, reachability.
check: check-seeds check-reach

# The full test suite plus a seed sweep of the fault-injection
# experiments: E21/E22, their fault-free anchor E19, the agreement
# sublayer E24, and the PoW controller sweep E26 at three distinct
# seeds, so seed-dependent regressions (not just seed-1 goldens)
# surface before a commit; then the epoch-transition jobs sweep
# (jobs 1/2/4 byte-identical) at the same seeds.
check-seeds:
	dune build && dune runtest
	@for seed in 1 7 1337; do \
	  echo "== seed sweep: e19/e21/e22/e24/e26 at seed $$seed =="; \
	  dune exec bin/tinygroups_cli.exe -- e19 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e21 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e22 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e24 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e26 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	done
	@for seed in 1 7 1337; do \
	  echo "== epoch-transition jobs sweep at seed $$seed =="; \
	  dune exec bench/epoch.exe -- --determinism-only --scale quick --seed $$seed || exit 1; \
	done
	@echo "seed sweep OK"

# List every library module that nothing outside its own files and
# test/ reaches, and fail if there is one. A module counts as reached
# when another file names it as Lib.Module (Lib. for a library's main
# module), or as Module. inside its own library or a file that opens
# the library.
check-reach:
	@src="lib bin bench examples perfbench"; orphans=""; \
	for f in lib/*/*.ml; do \
	  dir=$${f%/*}; lib=$${dir#lib/}; m=$$(basename $$f .ml); \
	  L=$$(echo $$lib | sed 's/./\U&/'); M=$$(echo $$m | sed 's/./\U&/'); \
	  if [ "$$m" = "$$lib" ]; then pat="\b$$L\."; else pat="\b$$L\.$$M\b"; fi; \
	  users=$$( { grep -rlE --include='*.ml' --include='*.mli' "$$pat" $$src; \
	    { ls $$dir/*.ml $$dir/*.mli; grep -rlE --include='*.ml' "\bopen!? $$L\b" $$src; } \
	      | xargs grep -lE "(^|[^.[:alnum:]_])$$M\."; } | grep -v "^$$dir/$$m\.mli\?$$"); \
	  [ -z "$$users" ] && orphans="$$orphans $$L.$$M"; \
	done; \
	if [ -n "$$orphans" ]; then echo "reached only from test/:$$orphans"; exit 1; fi; \
	echo "check-reach OK"

test: check

# The repo benchmark: every workload BENCHMARK.json declares, in
# sequence, through perfbench/run.py at seed SEED for SECONDS seconds
# each. Each run prints its metrics and writes its record to
# perfbench/out/<workload>-seed<SEED>-trace0.json. Budget ~4 min at
# the default 20 s on a 2-core host.
SEED ?= 1
SECONDS ?= 20
perf:
	@for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
	  echo "== perfbench: $$w (seed $(SEED), $(SECONDS) s)"; \
	  python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds $(SECONDS) || exit 1; \
	done

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --scale quick --jobs 2 --skip-timings

# The Bechamel rows B0-B11 alone (ns/run and minor-heap words/run of
# secure search, group formation, PoW attempt, ring queries, ...).
# Budget ~10 s.
bench-timings:
	dune exec bench/main.exe -- --only timings --scale quick

# The closed-loop serving tier (E23) at quick scale, seed 1, jobs 1;
# rewrites the committed BENCH_serve.json artifact.
bench-serve:
	dune exec bin/tinygroups_cli.exe -- serve --scale quick --seed 1 --jobs 1 --out BENCH_serve.json

# The stress scale tier (E25) at n = 2^17..2^20, seed 1, jobs 1;
# rewrites the committed BENCH_scale.json artifact (peak RSS and
# wall-clock per n live only there — the table stays deterministic).
# Budget ~5-11 minutes and ~2 GB peak RSS.
bench-scale:
	dune exec bin/tinygroups_cli.exe -- scale --scale stress --seed 1 --jobs 1 --out BENCH_scale.json

# The parallel epoch-transition bench: Epoch.advance and
# Group_graph.build_direct at jobs 1/2/4 per n, determinism asserted
# on every pair; speedup measured at jobs = min(cores, 4) (median of
# three j1/jN pairs) and asserted only when the recorded core count
# exceeds 1. Rewrites the committed BENCH_epoch.json artifact.
bench-epoch:
	dune exec bench/epoch.exe -- --scale stress --seed 1 --out BENCH_epoch.json

# CI variant (~25 s): same assertions at quick scale; the artifact is
# uploaded by the workflow, not committed.
bench-epoch-quick:
	dune exec bench/epoch.exe -- --scale quick --seed 1 --out BENCH_epoch_quick.json

# The PoW difficulty-controller sweep (E26) at standard scale, seed 1,
# jobs 1; rewrites the committed BENCH_pow.json artifact (wall-clock
# per cell lives only there — the table and every spend ledger stay
# deterministic). Budget ~0.5-1.5 minutes.
bench-pow:
	dune exec bin/tinygroups_cli.exe -- pow --scale standard --seed 1 --jobs 1 --out BENCH_pow.json

# CI variant (~4 s): quick scale; the artifact is uploaded by the
# workflow, not committed.
bench-pow-quick:
	dune exec bin/tinygroups_cli.exe -- pow --scale quick --seed 1 --jobs 1 --out BENCH_pow_quick.json

# Re-bless the golden digest table: run every registry entry at
# (Quick scale, seed 1, jobs 1) and rewrite test/golden_digests.txt.
# A digest change must land with its cause recorded in the provenance
# appendix of EXPERIMENTS.md.
regen-goldens:
	dune exec bin/regen_goldens.exe

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean

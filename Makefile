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

# Fail if a library value is reached only from its own module and
# test/. Every `val` (and `external`) of every lib/*/*.mli must be
# named, outside comments and strings, by another module of lib, bin,
# bench, examples or perfbench; a module without exported values
# (overlay_intf.ml has no .mli) must be named itself. The scan matches
# words, not bindings, so a common name reached elsewhere passes.
# test/reach_allow.txt lists the exports only tests need, one
# `Module.value reason` a line; an entry must name an existing value
# that is still unreached, so the list cannot go stale.
check-reach:
	@awk -v allowf=test/reach_allow.txt ' \
	function strip(s,   o, re, t) { \
	  o = ""; gsub(/'"'"'\\?"'"'"'/, " ", s); \
	  while (s != "") { \
	    re = instr ? "\\\\.|\"" : depth ? "\\(\\*|\\*\\)|\"" : "\\(\\*|\""; \
	    if (!match(s, re)) { if (!instr && !depth) o = o s; break } \
	    t = substr(s, RSTART, RLENGTH); \
	    if (!instr && !depth) o = o substr(s, 1, RSTART - 1); \
	    s = substr(s, RSTART + RLENGTH); \
	    if (instr) instr = t != "\""; else if (t == "\"") instr = 1; \
	    else if (t == "(*") depth++; else depth--; \
	  } \
	  return o \
	} \
	function index_words(s, n,   w, i, k) { \
	  k = split(s, w, n); \
	  for (i = 1; i <= k; i++) \
	    if (w[i] != "" && !((w[i], stem) in seen)) { seen[w[i], stem]; hits[w[i]]++; at[w[i]] = stem } \
	} \
	function reached(w, st) { return hits[w] > 1 || (hits[w] == 1 && at[w] != st) } \
	BEGIN { \
	  while ((getline l < allowf) > 0) \
	    if (l !~ /^(#|[ \t]*$$)/) { \
	      split(l, f, /[ \t]+/); allow[f[1]] = 1; \
	      if (split(l, f, /[ \t]+/) < 2) bad = bad "\n  " allowf ": no reason given for " f[1]; \
	    } \
	} \
	FNR == 1 { \
	  depth = instr = 0; stem = FILENAME; sub(/\.mli?$$/, "", stem); \
	  m = stem; sub(/.*\//, "", m); mod[stem] = toupper(substr(m, 1, 1)) substr(m, 2); \
	  if (FILENAME ~ /^lib\/.*\.ml$$/) mls[stem] = 1; \
	} \
	{ \
	  code = strip($$0); \
	  if (FILENAME ~ /\.mli$$/ && match(code, /^[ \t]*(val|external)[ \t]+([a-z_][A-Za-z0-9_'"'"']*|\([^)]*\))/)) { \
	    v = substr(code, RSTART, RLENGTH); sub(/^[ \t]*[a-z]+[ \t]+/, "", v); gsub(/[ ()]/, "", v); \
	    nv++; vname[nv] = v; vstem[nv] = stem; vat[nv] = FILENAME ":" FNR; exports[stem] = 1; \
	  } \
	  index_words(code, "[^A-Za-z0-9_'"'"']+"); \
	  index_words(code, "[^-!$$%&*+./:<=>?@^|~]+"); \
	} \
	END { \
	  for (i = 1; i <= nv; i++) { \
	    key = mod[vstem[i]] "." vname[i]; valid[key] = 1; \
	    if (key in allow) { if (reached(vname[i], vstem[i])) bad = bad "\n  " allowf ": " key " is now reached outside test/"; } \
	    else if (!reached(vname[i], vstem[i])) bad = bad "\n  " vat[i] ": " key " has no caller outside its module and test/"; \
	  } \
	  for (s in mls) \
	    if (!(s in exports) && !reached(mod[s], s)) bad = bad "\n  " s ".ml: module " mod[s] " is named by nothing outside its files and test/"; \
	  for (k in allow) if (!(k in valid)) bad = bad "\n  " allowf ": " k " names no exported value"; \
	  if (bad != "") { print "check-reach failed:" bad; exit 1 } \
	  print "check-reach OK (" nv " exported values)" \
	}' $$(find lib bin bench examples perfbench -name '*.ml' -o -name '*.mli' | sort)

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

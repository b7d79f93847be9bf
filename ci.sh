#!/bin/sh
# CI gate: build, formatting (when ocamlformat is available), `dune runtest`
# (alcotest suites plus the cram tests: test/cli.t for CLI exit codes,
# test/bench.t for the pinned quick bench record and its attack envelope),
# odoc, and what runtest cannot hold: wall-clock budgets, the checker's
# large search budgets, and the bench's --jobs determinism.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== format check =="
  dune build @fmt
else
  echo "== format check skipped (ocamlformat not installed) =="
fi

echo "== dune runtest =="
dune runtest

if command -v odoc >/dev/null 2>&1; then
  echo "== odoc (warnings in lib/obs are fatal) =="
  doc_log=$(mktemp)
  dune build @doc 2>&1 | tee "$doc_log"
  if grep -i "warning" "$doc_log" | grep -q "obs"; then
    echo "odoc warnings in lib/obs"
    rm -f "$doc_log"
    exit 1
  fi
  rm -f "$doc_log"
else
  echo "== odoc skipped (odoc not installed) =="
fi

echo "== n=50 scale smoke (sailfish, 2 s sim, 90 s wall budget, heap cap) =="
# The batched fan-out keeps large-committee runs affordable: a 50-node
# sailfish run processes ~2.6M events in a few seconds. Budget is explicit
# wall-clock — blowing it means the fast path regressed, not just noise.
# The built binary runs directly (dune exec would print dune's own GC
# stats); OCAMLRUNPARAM=v=0x400 prints the run's GC stats to stderr.
smoke_dir=$(mktemp -d)
if ! OCAMLRUNPARAM=v=0x400 timeout 90 _build/default/bin/clanbft_cli.exe sim \
  -n 50 -p full --load 200 --duration 2 --warmup 0.5 --seed 7 \
  >"$smoke_dir/n50" 2>"$smoke_dir/n50.gc"; then
  echo "n=50 smoke failed or exceeded its 90 s wall-clock budget"
  exit 1
fi
# Peak heap is deterministic per seed. It read 20,160,141 words before RBC
# echo shares were released at certification, 14,203,535 after,
# 7,949,912 once events moved into the engine's slot pool and echo
# certificates were aggregated without holding shares, 7,832,652 before
# the engine's calendar ring sized itself from the traffic, 5,335,070
# after, 4,560,395 before round rows held their values without an option
# cell, 4,003,509 after, and 3,643,554 once the calendar kept events
# inline in bucket chunks instead of per-µs slot chains (OCaml 5.1.1),
# 3,605,066 before delivered RBC instances dropped their echo tallies and
# packed their flags and rare fields, 3,015,242 after, and 2,429,897 once
# blocks held their transactions as packed runs instead of one boxed
# record each; the cap is the last plus 10%.
n50_heap_cap=2672886
n50_heap=$(awk '/^top_heap_words:/ { print $2 }' "$smoke_dir/n50.gc")
if [ -z "$n50_heap" ] || [ "$n50_heap" -gt "$n50_heap_cap" ]; then
  echo "n=50 smoke top_heap_words '${n50_heap}' exceeds its cap $n50_heap_cap"
  exit 1
fi
echo "n=50 top_heap_words $n50_heap (cap $n50_heap_cap)"
# Dispatched events are deterministic per seed too: the engine events
# run, less the deliveries the net elided because their receiver was
# certain to ignore them at their arrival. 1,440,267 of 2,607,023 events
# are dispatched; the cap is that plus 2%.
n50_dispatched_cap=1469072
n50_dispatched=$(awk '/^events / { print $4 }' "$smoke_dir/n50")
if [ -z "$n50_dispatched" ] || [ "$n50_dispatched" -gt "$n50_dispatched_cap" ]; then
  echo "n=50 smoke dispatched '${n50_dispatched}' exceeds its cap $n50_dispatched_cap"
  exit 1
fi
echo "n=50 dispatched $n50_dispatched (cap $n50_dispatched_cap)"
# The pinned fingerprint covers the dense echo/certificate path at a size
# the n=16 tests under-weight.
for want in "agree=true" "commit fingerprint: 0x6358547d58ba8ed9"; do
  grep -q "$want" "$smoke_dir/n50" ||
    { echo "n=50 smoke lacks '$want'"; cat "$smoke_dir/n50"; exit 1; }
done
n50_txns=$(awk '/^committed/ { print $2 }' "$smoke_dir/n50")
if [ -z "$n50_txns" ] || [ "$n50_txns" -le 0 ]; then
  echo "n=50 smoke committed no transactions"
  cat "$smoke_dir/n50"
  exit 1
fi
echo "n=50 committed $n50_txns txns within budget"
rm -rf "$smoke_dir"

echo "== crash-recover repeats across processes (n=16, WAL, one replica down, one restarting) =="
# A run is a pure function of its seed, in any process: two fresh
# processes must print the same fingerprint, agree, and allocate the same
# (minor_words, top_heap_words from OCAMLRUNPARAM=v=0x400). perfbench's
# crash-recover workload (perfbench/worker.ml) asks the same of its worker
# processes.
smoke_dir=$(mktemp -d)
for i in 1 2; do
  if ! OCAMLRUNPARAM=v=0x400 timeout 60 _build/default/bin/clanbft_cli.exe sim \
    -n 16 -p full --load 30 --duration 30 --warmup 1 --seed 1 --persist \
    --crash 9 --restart 3@3s:5s >"$smoke_dir/run$i" 2>"$smoke_dir/run$i.gc"; then
    echo "crash-recover run $i failed or exceeded its 60 s wall cap"
    cat "$smoke_dir/run$i"
    exit 1
  fi
  grep -q "agree=true" "$smoke_dir/run$i" ||
    { echo "crash-recover run $i lacks 'agree=true'"; cat "$smoke_dir/run$i"; exit 1; }
  { grep "^commit fingerprint: " "$smoke_dir/run$i"
    grep -E "^(minor_words|top_heap_words): " "$smoke_dir/run$i.gc"; } >"$smoke_dir/key$i"
  [ "$(wc -l <"$smoke_dir/key$i")" -eq 3 ] ||
    { echo "crash-recover run $i printed no fingerprint or GC stats"; exit 1; }
done
if ! cmp -s "$smoke_dir/key1" "$smoke_dir/key2"; then
  echo "crash-recover differs between two processes"
  diff "$smoke_dir/key1" "$smoke_dir/key2" || true
  exit 1
fi
sed 's/^/  /' "$smoke_dir/key1"
# Its peak heap is deterministic per seed too. It read 2,050,318 words
# while the write-ahead log kept a list cell and tuple-keyed dedup entries
# per record, and 1,638,204 once it kept a flat array and per-round slot
# flags (OCaml 5.1.1); the cap is that plus 10%.
cr_heap_cap=1802024
cr_heap=$(awk '/^top_heap_words:/ { print $2 }' "$smoke_dir/key1")
if [ -z "$cr_heap" ] || [ "$cr_heap" -gt "$cr_heap_cap" ]; then
  echo "crash-recover top_heap_words '${cr_heap}' exceeds its cap $cr_heap_cap"
  exit 1
fi
echo "crash-recover top_heap_words $cr_heap (cap $cr_heap_cap)"
rm -rf "$smoke_dir"

echo "== check: exhaustive schedule exploration (both TA-RBC families: honest, split and withholding senders) =="
# Bounded model checking (docs/CHECKING.md): every delivery reordering
# within the delay budget must keep agreement/validity/no-equivocation/
# totality. Honest and split (equivocating, f = 1) senders run at n=4 over
# 2 rounds; the withholding sender at n=7, where clan member 3 is stiffed
# and must pull. On a 2-vCPU host the slowest case (split, tribe-bracha)
# takes ~10 s. Wall cap is a hard gate — the checker regressing past it
# means the stateless-replay fast path broke.
smoke_dir=$(mktemp -d)
for fam in tribe-bracha tribe-signed; do
  for args in "-n 4 --rounds 2" "-n 4 --rounds 2 --adversary 0@split" \
    "-n 7 --rounds 1 --adversary 0@withhold"; do
    if ! timeout 60 dune exec bin/clanbft_cli.exe -- check -p "$fam" $args \
      --exhaustive >"$smoke_dir/$fam" 2>/dev/null; then
      echo "exhaustive check ($fam $args) failed or exceeded its 60 s wall cap"
      cat "$smoke_dir/$fam" 2>/dev/null || true
      exit 1
    fi
    grep -q "verdict: ok" "$smoke_dir/$fam" || {
      echo "exhaustive check ($fam $args) reported a violation"
      cat "$smoke_dir/$fam"
      exit 1
    }
    sed -n 's/^check: /  '"$fam $args"': /p' "$smoke_dir/$fam"
  done
done

echo "== check: fixed-seed random walks (10k sailfish walks) =="
# Seed 7 is the seed that caught the timeout-path no-vote/vote exclusivity
# bug (EXPERIMENTS.md); 10k walks re-sweep it on every CI run.
timeout 180 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 4 --walks 10000 --steps 300 --seed 7 >"$smoke_dir/walk_sf" 2>/dev/null || {
  echo "sailfish walk budget failed"
  cat "$smoke_dir/walk_sf" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/walk_sf" || {
  echo "sailfish walks reported a violation"
  cat "$smoke_dir/walk_sf"
  exit 1
}
echo "== check: strategy adversaries (2500 sailfish walks per strategy) =="
# The checker installs the runner's own Strategy code, so every attack the
# simulator ships is explorable. Each spec takes 9-13 s on a 2-core x86
# host; the 60 s cap is a hard gate.
for adv in 0@grief:0.9 0@censor:1 0@reorder:2ms; do
  timeout 60 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
    --rounds 4 --adversary "$adv" --walks 2500 --steps 300 --seed 7 \
    >"$smoke_dir/walk_adv" 2>/dev/null || {
    echo "strategy walk budget ($adv) failed or exceeded its 60 s wall cap"
    cat "$smoke_dir/walk_adv" 2>/dev/null || true
    exit 1
  }
  grep -q "verdict: ok" "$smoke_dir/walk_adv" || {
    echo "strategy walks ($adv) reported a violation"
    cat "$smoke_dir/walk_adv"
    exit 1
  }
done
echo "== check: sparse edges (exhaustive n=4 + 2500 walks) =="
# The sparse coverage rule (leader + link + sampled parents) replaces the
# dense 2f+1-parents assumption; both search modes must stay violation-free.
timeout 90 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 2 --sparse-k 2 --exhaustive --delay-budget 1 --window 3 \
  --max-actions 120 >"$smoke_dir/sparse_ex" 2>/dev/null || {
  echo "sparse exhaustive check failed or exceeded its 90 s wall cap"
  cat "$smoke_dir/sparse_ex" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/sparse_ex" || {
  echo "sparse exhaustive check reported a violation"
  cat "$smoke_dir/sparse_ex"
  exit 1
}
sed -n 's/^check: /  sparse exhaustive: /p' "$smoke_dir/sparse_ex"
timeout 120 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 4 --sparse-k 2 --walks 2500 --steps 300 --seed 7 \
  >"$smoke_dir/walk_sparse" 2>/dev/null || {
  echo "sparse walk budget failed"
  cat "$smoke_dir/walk_sparse" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/walk_sparse" || {
  echo "sparse walks reported a violation"
  cat "$smoke_dir/walk_sparse"
  exit 1
}
rm -rf "$smoke_dir"

# The sections test/bench.t pins: every quick section but fig5b, which the
# quick profile skips.
bench_sections="perf analysis attacks metrics table1 fig1 concrete fig5a fig5c fig6 ablation-latency ablation-rbc faults recovery micro profile"
echo "== parallel bench smoke (the pinned sections, --jobs 1 vs CLANBFT_JOBS=2) =="
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" \
  && CLANBFT_BENCH=quick dune exec --root "$OLDPWD" bench/main.exe -- --jobs 1 $bench_sections >stdout.jobs1 2>/dev/null \
  && CLANBFT_BENCH=quick CLANBFT_JOBS=2 dune exec --root "$OLDPWD" bench/main.exe -- $bench_sections >stdout.jobs2 2>stderr.jobs2)
# Deterministic stdout: parallel dispatch must not change a byte, the
# profiler's call counts, words and heap census included. The measured
# runs (perf, traced analysis, profile) are sequential and shared, so
# their sections add none; the attack corpus, the metrics dumps, the
# figure points, the latency ablation and the fault and recovery runs go
# through the bench's pooled, cached run path, so width 2 really runs
# them two at a time. The standalone RBC ablations print simulated facts
# only; [micro] reuses perf's measurements and prints their names.
if ! cmp -s "$smoke_dir/stdout.jobs1" "$smoke_dir/stdout.jobs2"; then
  echo "bench stdout differs between --jobs 1 and CLANBFT_JOBS=2"
  diff "$smoke_dir/stdout.jobs1" "$smoke_dir/stdout.jobs2" || true
  exit 1
fi
grep -q "using 2 worker domain(s)" "$smoke_dir/stderr.jobs2" || {
  echo "CLANBFT_JOBS=2 bench run did not use 2 worker domains"
  exit 1
}
rm -rf "$smoke_dir"

echo "CI OK"

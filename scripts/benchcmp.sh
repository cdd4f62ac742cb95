#!/usr/bin/env bash
# benchcmp.sh — guard against performance regressions on the hot paths.
#
# Runs one benchmark suite and compares each ns/op against its committed
# baseline file. Fails if any benchmark is more than THRESHOLD_PCT slower
# than its baseline.
#
#   render   Fig. 7 / Fig. 4 render engine        vs BENCH_render.json
#   serve    SPB1 wire codec + fleet proxy hop    vs BENCH_serve.json
#   kernels  int8 + float GEMM / forward kernels  vs BENCH_kernels.json
#   train    streamed vs materialized training    vs BENCH_train.json
#
# Usage: scripts/benchcmp.sh [-s render|serve|kernels|train] [threshold_pct]  (default: render, 20)
#
# CI shares hardware, so the baseline is only meaningful on comparable
# machines; set BENCHCMP_SKIP=1 to run the benchmarks without enforcing
# the threshold (smoke mode).
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/benchcmp.sh [-h] [-s render|serve|kernels|train] [threshold_pct]

Runs a benchmark suite and compares each ns/op against its committed
baseline. Exits non-zero when any benchmark is more than threshold_pct
(default 20) slower than its baseline.

Suites:
  render   Fig7Augmentation*, Fig4CorpusRender*     -> BENCH_render.json
  serve    WireDecode4096, WireEncode4096 (binary   -> BENCH_serve.json
           vs JSON spectrum codec), FleetPredict
           (1 front + 3 backends over loopback), and
           BatcherPredictMonitor (recurrent monitor
           stack through the batched dispatcher)
  kernels  GemmInt8NTConvLowered, the AVX2-vs-scalar -> BENCH_kernels.json
           float GEMM pairs on the Table-1 conv shapes
           (GemmNTTable1, GemmTable1Backward), the
           int8-vs-float batch-32 forward pairs
           (QuantForward* vs BatchForward*), and the
           batched recurrent engine (LSTMBatchForward32,
           LSTMFitEpoch); gates the int8 and float
           kernels, the scalar fallback, and the GEMM
           LSTM path
  train    TrainCorpus{Materialized,Streamed}: the  -> BENCH_train.json
           classic generate-then-Fit flow vs the fused
           streaming pipeline on the identical corpus;
           gates both the streamed path and the
           materialized baseline it is compared against

Benchmarks are compared by their exact emitted name, including any
-GOMAXPROCS suffix, so a -cpu variant can never be scored against a
different variant's baseline.

Environment:
  BENCHCMP_SKIP=1   run the benchmarks but do not enforce the threshold
                    (CI smoke mode for noisy shared runners)
EOF
}

SUITE="render"
while [ "$#" -gt 0 ]; do
    case "$1" in
    -h | --help)
        usage
        exit 0
        ;;
    -s | --suite)
        if [ "$#" -lt 2 ]; then
            echo "benchcmp: -s requires an argument" >&2
            exit 2
        fi
        SUITE="$2"
        shift 2
        ;;
    -*)
        echo "benchcmp: unknown option ${1}" >&2
        usage >&2
        exit 2
        ;;
    *)
        break
        ;;
    esac
done
if [ "$#" -gt 1 ]; then
    echo "benchcmp: too many arguments" >&2
    usage >&2
    exit 2
fi

cd "$(dirname "$0")/.."

THRESHOLD_PCT="${1:-20}"
case "$THRESHOLD_PCT" in
'' | *[!0-9]*)
    echo "benchcmp: threshold_pct must be a non-negative integer, got '${THRESHOLD_PCT}'" >&2
    usage >&2
    exit 2
    ;;
esac

# Suite table: the baseline file, the go test invocations, the benchmark
# names to gate, and the regeneration hint. Names are the exact strings
# `go test -bench` emits under `-cpu 1` (no -GOMAXPROCS suffix).
case "$SUITE" in
render)
    BASELINE="BENCH_render.json"
    BENCH_CMDS=("go test -run ^\$ -bench Fig7Augmentation|Fig4CorpusRender -benchtime 1s -cpu 1 .")
    NAMES="BenchmarkFig7AugmentationExact BenchmarkFig7AugmentationCached \
           BenchmarkFig4CorpusRenderExact BenchmarkFig4CorpusRenderCached"
    REGEN="go test -run '^\$' -bench 'Fig7Augmentation|Fig4CorpusRender' -benchtime 3s -cpu 1 ."
    ;;
serve)
    BASELINE="BENCH_serve.json"
    BENCH_CMDS=(
        "go test -run ^\$ -bench WireDecode4096|WireEncode4096|BatcherPredictMonitor -benchtime 1s -cpu 1 ./internal/serve"
        "go test -run ^\$ -bench FleetPredict -benchtime 1s -cpu 1 ./internal/front"
    )
    NAMES="BenchmarkWireDecode4096/codec=json BenchmarkWireDecode4096/codec=binary \
           BenchmarkWireEncode4096/codec=json BenchmarkWireEncode4096/codec=binary \
           BenchmarkFleetPredict/hops=binary BenchmarkFleetPredict/hops=json \
           BenchmarkBatcherPredictMonitor"
    REGEN="go test -run '^\$' -bench 'WireDecode4096|WireEncode4096' -benchtime 2s -cpu 1 ./internal/serve && go test -run '^\$' -bench FleetPredict -benchtime 2s -cpu 1 ./internal/front"
    ;;
kernels)
    BASELINE="BENCH_kernels.json"
    BENCH_CMDS=(
        "go test -run ^\$ -bench GemmInt8NTConvLowered|GemmNTTable1|GemmTable1Backward -benchtime 1s -cpu 1 ./internal/tensor"
        "go test -run ^\$ -bench QuantForwardDense32|QuantForwardConv32|BatchForwardDense32\$|BatchForwardConv32\$|LSTMBatchForward32\$|LSTMFitEpoch -benchtime 1s -cpu 1 ./internal/nn"
    )
    NAMES="BenchmarkGemmInt8NTConvLowered \
           BenchmarkGemmNTTable1/L1/impl=asm BenchmarkGemmNTTable1/L1/impl=scalar \
           BenchmarkGemmNTTable1/L3/impl=asm BenchmarkGemmNTTable1/L3/impl=scalar \
           BenchmarkGemmNTTable1/L5/impl=asm BenchmarkGemmNTTable1/L5/impl=scalar \
           BenchmarkGemmNTTable1/L7/impl=asm BenchmarkGemmNTTable1/L7/impl=scalar \
           BenchmarkGemmTable1Backward/L3/gemm/impl=asm BenchmarkGemmTable1Backward/L3/gemm/impl=scalar \
           BenchmarkGemmTable1Backward/L3/gemmTN/impl=asm BenchmarkGemmTable1Backward/L3/gemmTN/impl=scalar \
           BenchmarkQuantForwardDense32 BenchmarkQuantForwardConv32 \
           BenchmarkBatchForwardDense32 BenchmarkBatchForwardConv32 \
           BenchmarkLSTMBatchForward32 BenchmarkLSTMFitEpoch"
    REGEN="go test -count 3 -run '^\$' -bench 'Gemm|Im2Col|QuantizeRow' -benchtime 1s -benchmem -cpu 1 ./internal/tensor && go test -count 3 -run '^\$' -bench 'BatchForward|QuantForward|PredictBatch32|FitEpoch|LSTM' -benchtime 1s -benchmem -cpu 1 ./internal/nn  # median of the 3 counts"
    ;;
train)
    BASELINE="BENCH_train.json"
    # One full run per benchmark: each iteration is a complete training run,
    # so -benchtime 1x keeps the gate in the seconds range at quick scale.
    BENCH_CMDS=("go test -run ^\$ -bench TrainCorpus -benchtime 1x -cpu 1 .")
    NAMES="BenchmarkTrainCorpusMaterialized BenchmarkTrainCorpusStreamed"
    REGEN="go test -run '^\$' -bench TrainCorpus -benchtime 1x -cpu 1 .  # plus SPECML_BENCH_SCALE=paper for the 100k-corpus section"
    ;;
*)
    echo "benchcmp: unknown suite '${SUITE}' (want render, serve, kernels or train)" >&2
    usage >&2
    exit 2
    ;;
esac

# A missing baseline is a repo-state error, never a pass: fail loudly even
# in BENCHCMP_SKIP smoke mode, with a hint on how to regenerate it.
if [ ! -f "$BASELINE" ]; then
    {
        echo "benchcmp: baseline $BASELINE not found in $(pwd)"
        echo "benchcmp: regenerate it from a quiet machine with:"
        echo "  $REGEN"
        echo "  (then record each ns/op under \"benchmark\"/\"ns_per_op\" keys in $BASELINE)"
    } >&2
    exit 2
fi

out=""
for cmd in "${BENCH_CMDS[@]}"; do
    # shellcheck disable=SC2086 — the table entries are word-split on purpose.
    chunk=$($cmd 2>&1)
    echo "$chunk"
    out="$out
$chunk"
done

fail=0
for name in $NAMES; do
    # Exact-name match: the emitted name (field 1) must equal the baseline
    # name byte for byte. Under -cpu 1 no -GOMAXPROCS suffix is emitted; a
    # suffixed variant (BenchmarkFoo-8) is a different measurement and is
    # deliberately NOT matched against the suffix-free baseline.
    got=$(echo "$out" | awk -v n="$name" '$1 == n {print $3; exit}')
    if [ -z "$got" ]; then
        echo "benchcmp: $name missing from benchmark output" >&2
        fail=1
        continue
    fi
    base=$(awk -v n="\"benchmark\": \"$name\"" '
        index($0, n) {found=1}
        found && /"ns_per_op"/ {gsub(/[^0-9]/, ""); print; exit}
    ' "$BASELINE")
    if [ -z "$base" ]; then
        echo "benchcmp: $name missing from $BASELINE" >&2
        fail=1
        continue
    fi
    # integer arithmetic: got > base * (100 + threshold) / 100 ?
    limit=$(( base * (100 + THRESHOLD_PCT) / 100 ))
    pct=$(( ("${got%.*}" - base) * 100 / base ))
    status="ok"
    if [ "${got%.*}" -gt "$limit" ]; then
        status="REGRESSION"
        fail=1
    fi
    printf '%-42s baseline %12d ns/op  now %12d ns/op  (%+d%%)  %s\n' \
        "$name" "$base" "${got%.*}" "$pct" "$status"
done

if [ "${BENCHCMP_SKIP:-0}" = "1" ]; then
    echo "benchcmp: BENCHCMP_SKIP=1, threshold not enforced"
    exit 0
fi
if [ "$fail" -ne 0 ]; then
    echo "benchcmp: ${SUITE} benchmarks regressed more than ${THRESHOLD_PCT}% vs $BASELINE" >&2
    exit 1
fi
echo "benchcmp: all ${SUITE} benchmarks within ${THRESHOLD_PCT}% of baseline"

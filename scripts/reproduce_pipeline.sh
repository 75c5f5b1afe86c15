#!/usr/bin/env bash
# End-to-end workflow: bases -> sorter design -> noisy session -> key rates.
# Writes everything under ./out; each stage's files feed the next stage.
set -euo pipefail

OUT=${1:-out}

# 1. Mutually unbiased bases: all six at d=5, the sqrt-complexity pair at d=25.
hdqkd mub gen --d 5 --family wh-all --out "$OUT/mubs5"
hdqkd mub check "$OUT"/mubs5/basis_*.json
hdqkd mub gen --d 25 --family sqrt-pair --out "$OUT/mubs25"
hdqkd mub check "$OUT"/mubs25/basis_*.json

# 2. Desk-scale 10-plane DFT sorter design (12-15 s on two cores).
hdqkd optics design --d 5 --arrangement line --target dft \
    --planes 10 --plane-spacing 43.5e-3 --iterations 30 \
    --nx 192 --ny 192 --pitch 15e-6 --wavelength 810e-9 \
    --out "$OUT/sorter5" --pgm

# 3. Noisy 25-dimensional session in the row/col-DFT pair, 1e6 expected
#    coincidences per setting.
hdqkd simulate --d 25 --family sqrt-pair --Eu 0.073 --Eb 0.248 \
    --pair-rate 1e6 --time 1 --rounds 10000 --seed 42 --out "$OUT/sim25"

# 4. Key-rate bounds: from the sampled counts, and closed-form evaluations.
hdqkd keyrate --counts "$OUT/sim25/counts.csv" --bound two-mub-block \
    --out "$OUT/rate25"
hdqkd keyrate --d 5 --bound depolarizing --E 0.11 --out "$OUT/rate5"

# 5. Plot data: rate-vs-error curves for three error splits, and the
#    threshold-vs-dimension sweep.
hdqkd keyrate --d 25 --bound two-mub-uniform --E 0.001 \
    --curve rate --errors 0:0.6:121 --out "$OUT/curves/uniform"
hdqkd keyrate --d 25 --bound two-mub-block --Eu 0.073 --Eb 0.248 \
    --curve rate --errors 0:0.6:121 --out "$OUT/curves/block77"
hdqkd keyrate --curve thresholds --d-range 2:32 --out "$OUT/curves"

echo "pipeline complete; outputs under $OUT/"

#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc -D warnings (workspace crates; vendored stubs excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude criterion --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json

echo "==> e2ebench build + self-tests (the repo benchmark compiles against the service API)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> awb-audit --deny (R1-R4 lexical lints + R5 unsafe-confinement / R6 lock-order / R7 hot-path-alloc / R8 reactor-blocking)"
# Ratchet mode: audit-baseline.json records the accepted hot-path allocation
# sites on the delta-recompile path (compiling a dirty component allocates by
# design); the gate fails only on findings NOT in the baseline. Refresh with
#   cargo run --release -q -p awb-audit -- --write-baseline audit-baseline.json
cargo run --release -q -p awb-audit -- --baseline audit-baseline.json --deny

# Best-effort ThreadSanitizer leg over the concurrency-heavy crates. TSan
# needs a nightly toolchain (-Zsanitizer) plus the matching rust-src; when
# either is missing the leg is skipped with a visible notice so the rest of
# the gate still runs everywhere.
echo "==> ThreadSanitizer (reactor + service test suites, best effort)"
if rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Z build-std -q -p awb-reactor -p awb-service \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "    SKIPPED: no nightly toolchain with rust-src; install via" \
         "'rustup toolchain install nightly --component rust-src' to enable"
fi

echo "==> cargo test --features debug-invariants (runtime LP/colgen guards)"
cargo test -q -p awb-lp --features debug-invariants
cargo test -q -p awb-core --features debug-invariants --lib

echo "==> enum_bench --smoke (engine equivalence + speedup floor)"
cargo run --release -q -p awb-bench --bin enum_bench -- --smoke

echo "==> colgen_bench --smoke (solver equivalence + speedup floor)"
cargo run --release -q -p awb-bench --bin colgen_bench -- --smoke

echo "==> colgen_bench --frontier-smoke (64-link clustered solve under wall-clock budget; 40-link single-component optimum bits + exact-search node ceiling)"
cargo run --release -q -p awb-bench --bin colgen_bench -- --frontier-smoke

echo "==> session_bench --smoke (warm-session bit-identity + speedup floor)"
cargo run --release -q -p awb-bench --bin session_bench -- --smoke

echo "==> service_load_bench --smoke (reactor server under load)"
cargo run --release -q -p awb-bench --bin service_load_bench -- --smoke

echo "==> estimators_bench --smoke (kernel bit-identity + speedup floor + campaign determinism)"
cargo run --release -q -p awb-bench --bin estimators_bench -- --smoke

echo "==> mobility_bench --smoke (incremental recompile beats from-scratch, answers bit-identical)"
cargo run --release -q -p awb-bench --bin mobility_bench -- --smoke

echo "CI green."

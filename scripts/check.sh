#!/usr/bin/env sh
# The full local gate: formatting, lints, tests. CI runs exactly this.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Scoped to the facade package and every library it links, as before the
# root gained `default-members`; `cargo test` below covers the workspace.
echo "==> cargo clippy (deny warnings)"
cargo clippy -p tacoma --all-targets --all-features -- -D warnings

if command -v cargo-deny >/dev/null 2>&1; then
    echo "==> cargo deny (advisories, bans)"
    cargo deny check advisories bans
else
    echo "==> cargo deny: not installed, skipping (cargo install cargo-deny)"
fi

echo "==> cargo test"
cargo test -q

echo "==> crash recovery (journal kill tests, release)"
cargo test --release --test taxd_journal -q

echo "==> execution-tier differential (serial + parallel harness, release)"
cargo test --release -p tacoma-taxscript --test prop_differential -q -- --test-threads 1
cargo test --release -p tacoma-taxscript --test prop_differential -q -- --test-threads 4

echo "ok: all checks passed"

#!/usr/bin/env sh
# The full local gate: formatting, lints, tests. CI runs exactly this.
set -eu

cd "$(dirname "$0")/.."

# The workspace denies `unsafe_code`; the transport's `poll(2)` binding is
# the one module allowed to lift that.
echo "==> unsafe confined to crates/transport/src/poll.rs"
stray=$(grep -rl 'allow(unsafe_code)' crates src | grep -vx 'crates/transport/src/poll.rs' || true)
if [ -n "$stray" ]; then
    echo "allow(unsafe_code) outside crates/transport/src/poll.rs:"
    echo "$stray"
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The default members (the facade and every crate under `crates/`), every
# target; `--no-deps` keeps the vendored stand-ins out.
echo "==> cargo clippy (deny warnings)"
cargo clippy --no-deps --all-targets --all-features -- -D warnings

if command -v cargo-deny >/dev/null 2>&1; then
    echo "==> cargo deny (advisories, bans)"
    cargo deny check advisories bans
else
    echo "==> cargo deny: not installed, skipping (cargo install cargo-deny)"
fi

echo "==> cargo test"
cargo test -q

# hopbench builds against the workspace's public API, so deleting an item
# it uses fails here rather than only in CI's release job.
echo "==> hopbench builds (benchmark/)"
cargo build --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> crash recovery (journal kill tests, release)"
cargo test --release --test taxd_journal -q

# The real-socket witness for transfers in flight: agents suspend on
# nonblocking sends between two taxd processes.
echo "==> two-daemon loopback (release)"
cargo test --release --test taxd_loopback -q

echo "==> execution-tier differential (serial + parallel harness, release)"
cargo test --release -p tacoma-taxscript --test prop_differential -q -- --test-threads 1
cargo test --release -p tacoma-taxscript --test prop_differential -q -- --test-threads 4

echo "ok: all checks passed"

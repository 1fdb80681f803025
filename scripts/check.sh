#!/usr/bin/env bash
# Lint gate: clippy with warnings denied (in both telemetry modes),
# rustfmt in check mode, rustdoc with warnings denied, and an
# unsafe-confinement grep. Run before sending changes; CI treats all
# five as hard failures.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v cargo >/dev/null 2>&1; then
  echo "check.sh: cargo not found on PATH — install a Rust toolchain first" >&2
  exit 1
fi

# All `unsafe` must live in the SIMD kernel module (see
# flexcs-linalg/src/simd/mod.rs for the dispatch contract). The grep
# ignores mentions of the `unsafe_code` lint name, which is how the
# rest of the workspace *denies* unsafe. Test-only exceptions: the
# allocation-counting tests (OMP solver, Φ·Ψ operator, fresh circuit
# nodes) must `unsafe impl GlobalAlloc` (an inherently unsafe trait) to
# count heap traffic; they only forward to `System` and never ship in a
# library. The circuit one is an integration test, a crate of its own,
# so flexcs-circuit's forbid(unsafe_code) does not reach it.
unsafe_leaks=$(grep -rn 'unsafe' --include='*.rs' crates \
  | grep -v 'crates/flexcs-linalg/src/simd/' \
  | grep -v 'crates/flexcs-solver/tests/greedy_alloc.rs' \
  | grep -v 'crates/flexcs-core/tests/operator_alloc.rs' \
  | grep -v 'crates/flexcs-circuit/tests/netlist_alloc.rs' \
  | grep -v 'unsafe_code' || true)
if [[ -n "$unsafe_leaks" ]]; then
  echo "check.sh: 'unsafe' outside crates/flexcs-linalg/src/simd/:" >&2
  echo "$unsafe_leaks" >&2
  exit 1
fi

# The circuit engine (including the sparse LU backend, which does raw
# index arithmetic over CSR buffers) must stay entirely safe code: the
# crate root carries forbid(unsafe_code) so nothing inside can opt out.
if ! grep -q '#!\[forbid(unsafe_code)\]' crates/flexcs-circuit/src/lib.rs; then
  echo "check.sh: flexcs-circuit must forbid(unsafe_code) at the crate root" >&2
  exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features telemetry -- -D warnings
cargo fmt --all -- --check
# Strict rustdoc catches intra-doc links left dangling by a deletion or
# pointing at private items. The vendored std-only stand-ins for
# proptest and rand are not documented.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand
echo "check.sh: clippy + fmt + rustdoc + unsafe-confinement clean"

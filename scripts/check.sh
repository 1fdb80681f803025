#!/usr/bin/env bash
# Lint gate: clippy with warnings denied (in both telemetry modes),
# rustfmt in check mode, rustdoc with warnings denied, an
# unsafe-confinement grep and a doc-drift grep. Run before sending
# changes; CI treats all six as hard failures.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v cargo >/dev/null 2>&1; then
  echo "check.sh: cargo not found on PATH — install a Rust toolchain first" >&2
  exit 1
fi

# All `unsafe` must live in the two x86_64 SIMD tier files (see
# flexcs-linalg/src/simd/mod.rs for the dispatch contract). The grep
# ignores mentions of the `unsafe_code` lint name, which is how the
# rest of the workspace *denies* unsafe, and two doc lines, one each in
# simd/mod.rs and simd/codelet.rs, that say where the `unsafe` lives;
# no other comment is exempt. Test-only exceptions: the
# allocation-counting tests (OMP solver, Φ·Ψ operator, fresh circuit
# nodes) must `unsafe impl GlobalAlloc` (an inherently unsafe trait) to
# count heap traffic; they only forward to `System` and never ship in a
# library. The circuit one is an integration test, a crate of its own,
# so flexcs-circuit's forbid(unsafe_code) does not reach it.
simd=crates/flexcs-linalg/src/simd
unsafe_leaks=$(grep -rn 'unsafe' --include='*.rs' crates \
  | grep -v "^$simd/avx2\.rs:" \
  | grep -v "^$simd/avx512\.rs:" \
  | grep -Ev "^$simd/mod\.rs:[0-9]+://! All \`unsafe\` in the workspace lives in this module's vector tiers,\$" \
  | grep -Ev "^$simd/codelet\.rs:[0-9]+://! the intrinsics and their \`unsafe\` stay in the tier files\.\$" \
  | grep -v 'crates/flexcs-solver/tests/greedy_alloc.rs' \
  | grep -v 'crates/flexcs-core/tests/operator_alloc.rs' \
  | grep -v 'crates/flexcs-circuit/tests/netlist_alloc.rs' \
  | grep -v 'unsafe_code' || true)
if [[ -n "$unsafe_leaks" ]]; then
  echo "check.sh: 'unsafe' outside $simd/avx2.rs and avx512.rs:" >&2
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

# Doc drift: every `--bin NAME` or `--example NAME` the docs tell a
# reader to run must name a binary or example that exists, so a deleted
# binary cannot leave stale run instructions behind (a retirement note
# names the binary without `--bin`). Lines are joined first, so a name
# wrapped onto the next line is still checked.
doc_files=(README.md EXPERIMENTS.md DESIGN.md crates/flexcs-bench/src/lib.rs)
stale_runs=""
for name in $(sed 's|^[[:space:]]*//!||' "${doc_files[@]}" | tr '\n' ' ' \
  | grep -oE -- '--(bin|example)[[:space:]]+[A-Za-z0-9_]+' | awk '{print $2}' | sort -u); do
  if [[ ! -f "crates/flexcs-bench/src/bin/$name.rs" && ! -f "src/bin/$name.rs" \
    && ! -f "examples/$name.rs" ]]; then
    stale_runs+=" $name"
  fi
done
if [[ -n "$stale_runs" ]]; then
  echo "check.sh: ${doc_files[*]} name binaries or examples that do not exist:$stale_runs" >&2
  exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features telemetry -- -D warnings
cargo fmt --all -- --check
# Strict rustdoc catches intra-doc links left dangling by a deletion or
# pointing at private items. The vendored std-only stand-ins for
# proptest and rand are not documented.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand
echo "check.sh: clippy + fmt + rustdoc + unsafe-confinement + doc-drift clean"

#!/usr/bin/env bash
# Proves every determinism rule still fails the build. Each fixture under
# fixtures/ is compiled under clippy, on its own, in the scope of one
# package here, with the repository's own configuration: the clippy.toml
# of the crates that package stands for, the workspace's [lints] table
# (mirrored in this workspace's Cargo.toml, checked below) and, for the
# core package, the panic lints crates/{sim,core}/src/lib.rs deny
# (mirrored in core/Cargo.toml, checked below). A `_bad` fixture must produce
# every lint name or rustc error code listed for it, and a `_clean` one
# must compile with no diagnostic at all. Exit status 0 only if every
# line of the table and every mirror check holds.
#
#   lint-fixtures/check.sh        (from anywhere; needs cargo + clippy)
set -u
cd "$(dirname "$0")"

# package    fixture                 expected (comma-separated) or "clean"
TABLE='
core  unordered_bad           clippy::disallowed_types
core  unordered_clean         clean
core  wall_clock_bad          clippy::disallowed_types
core  wall_clock_clean        clean
core  ambient_env_bad         clippy::disallowed_methods
core  ambient_env_clean       clean
core  ambient_rng_bad         E0425,E0599
core  ambient_rng_clean       clean
core  float_fold_bad          clippy::disallowed_methods
core  float_fold_clean        clean
core  thread_bad              clippy::disallowed_types,clippy::disallowed_methods
core  thread_clean            clean
core  annotation_bad          clippy::allow_attributes,clippy::allow_attributes_without_reason,unknown_lints
core  annotation_clean        clean
core  annotation_syntax_bad   E0452
core  annotation_syntax_clean clean
core  unused_waiver_bad       unfulfilled_lint_expectations
core  unused_waiver_clean     clean
core  misdirected_waiver_bad  clippy::disallowed_types,unfulfilled_lint_expectations
core  misdirected_waiver_clean clean
core  scoped_waiver_bad       clean
core  panic_path_bad          clippy::expect_used,clippy::indexing_slicing,clippy::unreachable,clippy::panic,clippy::unwrap_used
core  panic_path_clean        clean
core  wildcard_bad            clippy::wildcard_enum_match_arm
core  wildcard_clean          clean
core  key_base_bad            E0080
core  key_base_clean          clean
core  strategy_no_give_up_bad E0046
core  strategy_no_give_up_clean clean
edge  wall_clock_bad          clippy::disallowed_types
edge  wall_clock_clean        clean
edge  ambient_env_bad         clippy::disallowed_methods
edge  ambient_env_clean       clean
edge  ambient_rng_bad         E0425,E0599
edge  ambient_rng_clean       clean
edge  annotation_bad          clippy::allow_attributes,clippy::allow_attributes_without_reason,unknown_lints
edge  annotation_clean        clean
edge  scoped_waiver_bad       unfulfilled_lint_expectations
edge  scoped_waiver_clean     clean
edge  unordered_bad           clean
edge  float_fold_bad          clean
edge  thread_bad              clean
bench wall_clock_bad          clean
bench ambient_env_bad         clean
bench unordered_bad           clean
bench annotation_bad          clippy::allow_attributes,clippy::allow_attributes_without_reason,unknown_lints
bench annotation_clean        clean
'

fail=0
repo=$(cd .. && pwd)

# The configuration each package is checked under: the directory whose
# clippy.toml applies.
conf_dir() {
    case "$1" in
        core) echo "$repo/crates/sim" ;;
        edge) echo "$repo" ;;
        bench) echo "$repo/crates/bench" ;;
    esac
}

# Mirrors: the three core crates share one configuration; the lint
# levels here are the workspace's; the fixtures' panic-lint line is the
# one the libraries carry.
for c in core overlap; do
    if ! cmp -s "$repo/crates/sim/clippy.toml" "$repo/crates/$c/clippy.toml"; then
        echo "FAIL crates/$c/clippy.toml differs from crates/sim/clippy.toml"
        fail=1
    fi
done
# Lint names a manifest sets to deny, and lint names a library's
# #![deny(...)] lists, each sorted.
denied() { grep -o '^[a-z_]* = "deny"' "$1" | cut -d' ' -f1 | sort; }
deny() { sed -n '/^#!\[deny(/,/^)\]/p' "$1" | grep -o 'clippy::[a-z_]*' | cut -d: -f3 | sort; }
if [ "$(denied Cargo.toml)" != "$(denied "$repo/Cargo.toml")" ]; then
    echo "FAIL the lints denied here differ from the workspace's"
    fail=1
fi
if [ "$(deny "$repo/crates/sim/src/lib.rs")" != "$(deny "$repo/crates/core/src/lib.rs")" ]; then
    echo "FAIL crates/sim and crates/core deny different panic lints"
    fail=1
fi
want=$( (denied "$repo/Cargo.toml"; deny "$repo/crates/sim/src/lib.rs") | sort)
if [ "$(denied core/Cargo.toml)" != "$want" ]; then
    echo "FAIL core/Cargo.toml denies other lints than the workspace plus crates/sim"
    fail=1
fi

# A waiver's reason must say something; clippy only checks it is there.
if git -C "$repo" grep -nE 'reason = ""' -- '*.rs'; then
    echo "FAIL an #[expect] above has an empty reason"
    fail=1
fi

# Each package's targets, compiled once: JSON diagnostics, one per line.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for pkg in core edge bench; do
    cargo clean -q -p "fixtures-$pkg" 2>/dev/null
    CLIPPY_CONF_DIR=$(conf_dir "$pkg") \
        cargo clippy -q -p "fixtures-$pkg" --all-targets --keep-going --offline \
        --message-format=json -- -D warnings 2>/dev/null |
        grep '"reason":"compiler-message"' > "$out/$pkg.json"
done

while read -r pkg fixture expected; do
    [ -z "$pkg" ] && continue
    # Diagnostics of this target, reduced to their codes.
    msgs=$(grep -F "\"name\":\"$fixture\"" "$out/$pkg.json")
    codes=$(printf '%s\n' "$msgs" | grep -o '"code":{"code":"[^"]*"' | sed 's/.*:"//; s/"$//' | sort -u)
    if [ "$expected" = clean ]; then
        if [ -n "$msgs" ]; then
            echo "FAIL $pkg/$fixture: expected clean, got: $(echo $codes)"
            fail=1
        fi
        continue
    fi
    for code in ${expected//,/ }; do
        if ! printf '%s\n' "$codes" | grep -qxF "$code"; then
            echo "FAIL $pkg/$fixture: missing $code (got: $(echo $codes))"
            fail=1
        fi
    done
done <<< "$TABLE"

[ "$fail" -eq 0 ] && echo "lint fixtures: all $(grep -c . <<< "$TABLE") checks hold"
exit "$fail"

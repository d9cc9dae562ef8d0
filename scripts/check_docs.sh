#!/usr/bin/env bash
# Documentation lint, run as a ctest entry (see tests/CMakeLists.txt).
#
# Checks, over README.md and every docs/*.md:
#  1. every relative markdown link points at a file that exists;
#  2. every `flag=` knob mentioned in backticks exists as a string
#     literal in the C++ sources (so docs cannot drift from the
#     Config keys the binaries actually parse);
#  3. every MANNA_* environment variable mentioned exists in the
#     sources or scripts, and every MANNA_* name the sources read
#     (a "MANNA_..." string literal: the getenv names, passed
#     directly or through a helper) is mentioned;
#  4. (only with a bench binary as $1) the counter catalog of
#     docs/OBSERVABILITY.md matches, in both directions, the
#     registry keys a golden fig12_strong_scaling run emits;
#  5. the fault-site catalog of docs/ROBUSTNESS.md matches, in both
#     directions, the kSiteNames registry of src/common/fault.cc;
#  6. the opcode table of docs/ISA.md matches, in both directions,
#     the toString(Opcode) mnemonic registry of src/isa/isa.cc;
#  7. the harness span/event catalog of docs/OBSERVABILITY.md
#     matches, in both directions, the kEventNames registry of
#     src/common/event_log.cc;
#  8. the knob table of docs/SERVICE.md matches, in both directions,
#     the kServiceKnobs registry of src/harness/server.cc.
#
# Pure grep/sed; no dependencies beyond POSIX tools + bash.
set -u
cd "$(dirname "$0")/.."

errors=0
complain() {
    echo "check_docs: $*" >&2
    errors=$((errors + 1))
}

docs=(README.md docs/*.md)
for doc in "${docs[@]}"; do
    [ -f "$doc" ] || { complain "missing doc file $doc"; continue; }
done

# --- 1. relative markdown links ------------------------------------
for doc in "${docs[@]}"; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|"") continue ;;
        esac
        # resolve relative to the doc, strip any #anchor
        path="${target%%#*}"
        [ -n "$path" ] || continue # pure-anchor link
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            complain "$doc: broken link -> $target"
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. `flag=` knobs ----------------------------------------------
# Collect every backticked token that looks like a key=value knob,
# e.g. `jobs=`, `trace=out.json`, `retries=2`.
flags=$(grep -ohE '`[a-z_]+=[^`]*`' "${docs[@]}" 2>/dev/null |
        sed -E 's/^`([a-z_]+)=.*/\1/' | sort -u)
for flag in $flags; do
    # A knob shows up as a quoted Config key ("jobs"); docs also
    # backtick struct fields with initializers (`attempts=0`), which
    # count if the member declaration exists.
    if ! grep -rqE "\"$flag\"|[A-Za-z_] $flag *= *[A-Za-z0-9]" \
            --include='*.cc' --include='*.hh' --include='*.cpp' \
            src bench tools examples; then
        complain "flag '$flag=' documented but not found in sources"
    fi
done

# --- 3. MANNA_* environment variables / macros / cmake options -----
envs=$(grep -ohE 'MANNA_[A-Z_]+' "${docs[@]}" 2>/dev/null | sort -u)
for var in $envs; do
    if ! grep -rqwE "$var" --include='*.cc' --include='*.hh' \
            --include='*.py' --include='*.sh' \
            --include='CMakeLists.txt' src bench scripts \
            CMakeLists.txt; then
        complain "env var '$var' documented but not found in sources"
    fi
done
# The reverse direction: a variable the binaries read must be
# documented somewhere, so a new one cannot land undocumented.
read_envs=$(grep -rohE '"MANNA_[A-Z0-9_]+"' --include='*.cc' \
                --include='*.hh' src bench tools examples |
            tr -d '"' | sort -u)
[ -n "$read_envs" ] ||
    complain "no MANNA_* environment variables found in sources"
for var in $read_envs; do
    printf '%s\n' "$envs" | grep -qxF "$var" ||
        complain "env var '$var' read by the sources but not" \
                 "documented in README.md or docs/*.md"
done

# --- 4. counter catalog vs a golden run ----------------------------
# $1 (optional; the ctest entry passes the fig12_strong_scaling
# binary) runs the pinned deterministic point and lints the
# "## Counter catalog" section of docs/OBSERVABILITY.md against the
# registry keys the simulator actually emits. Catalog patterns use
# <t>/<n> for a decimal index, <word> for a lower-case word, and
# {a,b} brace alternatives.
if [ "$#" -ge 1 ] && [ -x "$1" ]; then
    set -f # patterns contain [...] and {...}; never glob them
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT INT TERM
    if "$1" bench=copy steps=1 jobs=1 stats="$tmpdir/stats.json" \
            > /dev/null 2>&1 && [ -s "$tmpdir/stats.json" ]; then
        # Registry keys: the deterministic "counters" section is
        # rendered by StatRegistry::toJson(4) — one 4-space-indented
        # "key": value line per counter, closed at column 0.
        sed -n '/^  "counters": {$/,/^},$/p' "$tmpdir/stats.json" |
            grep -oE '^    "[^"]+"' | sed 's/^    "//; s/"$//' |
            sort -u > "$tmpdir/keys"
        # Catalog patterns: backticked dotted tokens of the catalog
        # section (file names like stats.json are not key patterns).
        sed -n '/^## Counter catalog$/,/^## [A-Z]/p' \
                docs/OBSERVABILITY.md |
            grep -ohE '`[a-z_<>{},.0-9]+`' | tr -d '`' |
            grep -F . | grep -vE '\.(json|cc|hh|md|sh|py)$' |
            sort -u > "$tmpdir/patterns"
        [ -s "$tmpdir/keys" ] ||
            complain "golden run produced no counter keys"
        [ -s "$tmpdir/patterns" ] ||
            complain "no key patterns found in the counter catalog"
        # Pattern -> anchored regex: escape dots, then placeholders,
        # then braces to alternation groups.
        : > "$tmpdir/regexes"
        while IFS= read -r pat; do
            rx=$(printf '%s\n' "$pat" | sed -E '
                s/\./\\./g
                s/<[tn]>/[0-9]+/g
                s/<[a-z_]+>/[a-z0-9_]+/g
                s/\{/(/g; s/\}/)/g; s/,/|/g')
            printf '%s\n' "$rx" >> "$tmpdir/regexes"
            if ! grep -qE "^${rx}\$" "$tmpdir/keys"; then
                complain "catalog pattern '$pat' matches no counter" \
                         "of the golden run (stale docs?)"
            fi
        done < "$tmpdir/patterns"
        alternation=$(paste -sd'|' "$tmpdir/regexes")
        while IFS= read -r key; do
            complain "counter '$key' emitted but not in the" \
                     "docs/OBSERVABILITY.md catalog"
        done < <(grep -vE "^(${alternation})\$" "$tmpdir/keys")
    else
        complain "golden run '$1 bench=copy steps=1 jobs=1' failed"
    fi
else
    echo "check_docs: no bench binary given; catalog lint skipped"
fi

# --- 5. fault-site catalog vs the fault.cc registry ----------------
# The injection sites are registered once, in the kSiteNames array of
# src/common/fault.cc; docs/ROBUSTNESS.md documents each one in its
# "## Fault-site catalog" section as a backticked dotted name. Both
# directions must agree, so neither side can drift.
sites_src=$(sed -n '/kSiteNames\[\] = {/,/^};/p' src/common/fault.cc |
            grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u)
sites_doc=$(sed -n '/^## Fault-site catalog$/,/^## [A-Z]/p' \
                docs/ROBUSTNESS.md 2>/dev/null |
            grep -ohE '`[a-z_.]+`' | tr -d '`' |
            grep -F . | grep -vE '\.(json|cc|hh|md|sh|py|hb|failures)$' |
            sort -u)
[ -n "$sites_src" ] ||
    complain "no fault sites found in src/common/fault.cc"
[ -n "$sites_doc" ] ||
    complain "no fault-site catalog found in docs/ROBUSTNESS.md"
for site in $sites_src; do
    printf '%s\n' "$sites_doc" | grep -qxF "$site" ||
        complain "fault site '$site' registered but missing from" \
                 "the docs/ROBUSTNESS.md catalog"
done
for site in $sites_doc; do
    printf '%s\n' "$sites_src" | grep -qxF "$site" ||
        complain "fault site '$site' documented but not registered" \
                 "in src/common/fault.cc"
done

# --- 6. opcode table vs the isa.cc mnemonic registry ---------------
# The mnemonics live once, in the toString(Opcode) switch of
# src/isa/isa.cc; docs/ISA.md documents each one in its "## Opcode
# table" section as the backticked second column. Both directions
# must agree, so neither side can drift.
ops_src=$(sed -n '/^toString(Opcode op)$/,/^}$/p' src/isa/isa.cc |
          grep -oE '"[a-z.]+"' | tr -d '"' | sort -u)
ops_doc=$(sed -n '/^## Opcode table$/,/^## [A-Z]/p' docs/ISA.md |
          grep -oE '^\| [0-9]+ \| `[a-z.]+`' |
          grep -oE '`[a-z.]+`' | tr -d '`' | sort -u)
[ -n "$ops_src" ] ||
    complain "no opcode mnemonics found in src/isa/isa.cc"
[ -n "$ops_doc" ] ||
    complain "no opcode table found in docs/ISA.md"
for op in $ops_src; do
    printf '%s\n' "$ops_doc" | grep -qxF "$op" ||
        complain "opcode '$op' implemented but missing from the" \
                 "docs/ISA.md opcode table"
done
for op in $ops_doc; do
    printf '%s\n' "$ops_src" | grep -qxF "$op" ||
        complain "opcode '$op' documented but not implemented" \
                 "in src/isa/isa.cc"
done

# --- 7. harness event catalog vs the event_log.cc registry ---------
# Harness span/event names are registered once, in the kEventNames
# array of src/common/event_log.cc; docs/OBSERVABILITY.md documents
# each one in its "## Harness span and event catalog" chapter as a
# backticked dotted name. Both directions must agree, so call sites,
# registry, and docs cannot drift apart.
events_src=$(sed -n '/kEventNames\[\] = {/,/^};/p' \
                 src/common/event_log.cc |
             grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u)
events_doc=$(sed -n '/^## Harness span and event catalog$/,/^## [A-Z]/p' \
                 docs/OBSERVABILITY.md 2>/dev/null |
             grep -ohE '`[a-z_.]+`' | tr -d '`' |
             grep -F . | grep -vE '\.(json|cc|hh|md|sh|py|events|metrics)$' |
             sort -u)
[ -n "$events_src" ] ||
    complain "no event names found in src/common/event_log.cc"
[ -n "$events_doc" ] ||
    complain "no harness event catalog found in docs/OBSERVABILITY.md"
for ev in $events_src; do
    printf '%s\n' "$events_doc" | grep -qxF "$ev" ||
        complain "event '$ev' registered but missing from the" \
                 "docs/OBSERVABILITY.md harness catalog"
done
for ev in $events_doc; do
    printf '%s\n' "$events_src" | grep -qxF "$ev" ||
        complain "event '$ev' documented but not registered" \
                 "in src/common/event_log.cc"
done

# --- 8. service knob table vs the server.cc registry ---------------
# The daemon's Config keys are registered once, in the kServiceKnobs
# array of src/harness/server.cc; docs/SERVICE.md documents each one
# as the backticked first column of its "## Knob table" section. Both
# directions must agree, so neither side can drift.
knobs_src=$(sed -n '/kServiceKnobs\[\] = {/,/^};/p' \
                src/harness/server.cc |
            grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
knobs_doc=$(sed -n '/^## Knob table$/,/^## [A-Z]/p' \
                docs/SERVICE.md 2>/dev/null |
            grep -oE '^\| `[a-z_]+=[^`]*`' |
            sed -E 's/^\| `([a-z_]+)=.*/\1/' | sort -u)
[ -n "$knobs_src" ] ||
    complain "no service knobs found in src/harness/server.cc"
[ -n "$knobs_doc" ] ||
    complain "no knob table found in docs/SERVICE.md"
for knob in $knobs_src; do
    printf '%s\n' "$knobs_doc" | grep -qxF "$knob" ||
        complain "service knob '$knob=' registered but missing from" \
                 "the docs/SERVICE.md knob table"
done
for knob in $knobs_doc; do
    printf '%s\n' "$knobs_src" | grep -qxF "$knob" ||
        complain "service knob '$knob=' documented but not" \
                 "registered in src/harness/server.cc"
done

if [ "$errors" -gt 0 ]; then
    echo "check_docs: $errors problem(s)" >&2
    exit 1
fi
echo "check_docs: OK (${#docs[@]} docs checked)"

#!/bin/sh
# Non-test lines of code per workspace crate.
#
# Counts the non-blank, non-comment lines of every `.rs` file under
# `crates/<crate>/src`, skipping each item marked `#[cfg(test)]` (the
# attribute line and the whole item after it: a braced block up to its
# matching `}`, or a `;`-terminated item). Braces inside string, char
# and comment text are ignored. Integration tests (`crates/*/tests`),
# benches and the vendored stand-ins are not counted.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the script's parent dir)
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

count_file() {
    awk '
    BEGIN { in_block = 0; in_str = 0; raw_hashes = -1; skip = 0; depth = 0; opened = 0; n = 0 }
    {
        line = $0
        trimmed = line
        sub(/^[ \t]+/, "", trimmed)
        if (!skip && !in_block && !in_str && raw_hashes < 0 && index(trimmed, "#[cfg(test)]") == 1) {
            skip = 1; depth = 0; opened = 0
        }
        code = 0
        len = length(line)
        i = 1
        while (i <= len) {
            c = substr(line, i, 1)
            if (in_block) {
                if (c == "*" && substr(line, i + 1, 1) == "/") { in_block = 0; i += 2; continue }
                i++; continue
            }
            if (in_str) {
                code = 1
                if (c == "\\") { i += 2; continue }
                if (c == "\"") in_str = 0
                i++; continue
            }
            if (raw_hashes >= 0) {
                code = 1
                if (c == "\"") {
                    h = 0
                    while (h < raw_hashes && substr(line, i + 1 + h, 1) == "#") h++
                    if (h == raw_hashes) { raw_hashes = -1; i += 1 + h; continue }
                }
                i++; continue
            }
            if (c == " " || c == "\t") { i++; continue }
            if (c == "/" && substr(line, i + 1, 1) == "/") break
            if (c == "/" && substr(line, i + 1, 1) == "*") { in_block = 1; i += 2; continue }
            code = 1
            if (c == "r" && match(substr(line, i), /^r#*"/)) {
                raw_hashes = RLENGTH - 2
                i += RLENGTH; continue
            }
            if (c == "\"") { in_str = 1; i++; continue }
            if (c == "\047") {
                # Char literal (a lifetime has no closing quote after it).
                if (match(substr(line, i), /^\047(\\.[^\047]*|[^\\\047])\047/)) { i += RLENGTH; continue }
                i++; continue
            }
            if (skip) {
                if (c == "{") { depth++; opened = 1 }
                else if (c == "}") depth--
                else if (c == ";" && depth == 0 && !opened) { skip = 2 }
            }
            i++
        }
        if (skip) {
            if (skip == 2 || (opened && depth == 0)) skip = 0
            next
        }
        if (code) n++
    }
    END { print n }
    ' "$1"
}

total=0
printf '%-12s %8s\n' crate lines
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "${dir}src" ] || continue
    sum=0
    for f in $(find "${dir}src" -name '*.rs' | sort); do
        sum=$((sum + $(count_file "$f")))
    done
    printf '%-12s %8d\n' "$crate" "$sum"
    total=$((total + sum))
done
printf '%-12s %8d\n' total "$total"

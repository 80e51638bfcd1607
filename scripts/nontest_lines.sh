#!/bin/sh
# Count the non-test lines of the workspace's library and binary sources:
# the non-blank lines of crates/*/src/**/*.rs outside every `#[cfg(test)]`
# item, whether that item is a `mod x;` line or a braced block such as
# `mod tests { ... }`, wherever in the file it sits.
#
# Usage: scripts/nontest_lines.sh [REPO_ROOT]     (default: the current
# directory). Prints one number. Braces are counted by a small lexer that
# skips string, raw-string and char literals and comments, so a `{` inside
# a test's KB text cannot end the skipped item early or late.
set -eu
root=${1:-.}
find "$root"/crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
FNR == 1 { mode = 0; depth = 0; instr = 0; incomment = 0 }
{
    line = $0
    trimmed = line
    sub(/^[ \t]+/, "", trimmed)
    starts_cfg_test = (!instr && !incomment && mode == 0 && index(trimmed, "#[cfg(test)]") == 1)
    if (starts_cfg_test) {
        # The attribute itself; the item it guards follows.
        mode = 1
        rest = substr(trimmed, length("#[cfg(test)]") + 1)
        skipped = 1
        scan(rest)
        next
    }
    skipped = (mode != 0)
    scan(line)
    if (!skipped && trimmed != "") count++
}
END { print count + 0 }

# Walk one line, tracking literal/comment state across lines and, inside a
# `#[cfg(test)]` item, the brace depth that closes it.
#   mode 0: ordinary code; mode 1: after the attribute, before the item
#   opens a block or ends with `;`; mode 2: inside the item block.
function scan(s,    i, n, c, d, j, hashes) {
    n = length(s)
    i = 1
    while (i <= n) {
        c = substr(s, i, 1)
        if (incomment) {
            if (c == "*" && substr(s, i + 1, 1) == "/") { incomment = 0; i += 2; continue }
            i++; continue
        }
        if (instr == 1) {
            if (c == "\\") { i += 2; continue }
            if (c == "\"") instr = 0
            i++; continue
        }
        if (instr == 2) {
            if (c == "\"" && substr(s, i + 1, rawlen) == rawclose) { instr = 0; i += 1 + rawlen; continue }
            i++; continue
        }
        if (c == "/" && substr(s, i + 1, 1) == "/") return
        if (c == "/" && substr(s, i + 1, 1) == "*") { incomment = 1; i += 2; continue }
        if (c == "\"") { instr = 1; i++; continue }
        if (c == "r" && (i == 1 || substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/)) {
            j = i + 1; hashes = ""
            while (substr(s, j, 1) == "#") { hashes = hashes "#"; j++ }
            if (substr(s, j, 1) == "\"") {
                instr = 2; rawclose = hashes; rawlen = length(hashes); i = j + 1; continue
            }
        }
        if (c == "'"'"'") {
            d = substr(s, i + 1, 1)
            if (d == "\\") {
                j = index(substr(s, i + 3), "'"'"'")
                i = (j > 0) ? i + 3 + j : n + 1
                continue
            }
            if (substr(s, i + 2, 1) == "'"'"'") { i += 3; continue }
            i++; continue
        }
        if (mode == 1) {
            if (c == "{") { mode = 2; depth = 1 }
            else if (c == ";") mode = 0
        } else if (mode == 2) {
            if (c == "{") depth++
            else if (c == "}") { depth--; if (depth == 0) mode = 0 }
        }
        i++
    }
}
'

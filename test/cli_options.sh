#!/bin/sh
# Print the option names of every mlc subcommand and of the bench harness,
# one "COMMAND: --flag" line each.  CI diffs this against
# test/cli_options.expected, so adding or dropping a flag shows up in review.
#
#   sh test/cli_options.sh [BUILD_DIR]     (default: _build/default)
set -e
B=${1:-_build/default}
options() {
  sed -n 's/^ \{7\}\(-.*\)$/\1/p' | grep -oE '(^|, )--?[A-Za-z][A-Za-z0-9-]*' \
    | sed 's/^, //' | sort -u | sed "s/^/$1: /"
}
for cmd in list simulate sweep layout arcs fuse tile run curve emit compile \
           trace-check "cache stats" "cache verify" "cache gc"; do
  # shellcheck disable=SC2086  # "cache stats" is two words on purpose
  "$B/bin/mlc.exe" $cmd --help=plain | options "mlc $cmd"
done
"$B/bench/main.exe" --help=plain | options "bench"

#!/bin/sh
# Reachability check: every lib/ module must be used by real code.
#
# For each lib/**/*.ml, look for its module name (as a whole word) in the
# .ml/.mli files of lib/, bin/, bench/, examples/ and perfbench/, other
# than the module's own .ml and .mli.  test/ does not count: code that only
# tests reach should be wired into a real surface or deleted.
#
# Prints one line per unreferenced module and exits 1 if there is any;
# prints nothing and exits 0 otherwise.
#
#   sh test/reachable.sh

cd "$(dirname "$0")/.." || exit 2

status=0
for ml in $(find lib -name '*.ml' | sort); do
  base=$(basename "$ml" .ml)
  mod="$(printf %s "$base" | cut -c1 | tr a-z A-Z)$(printf %s "$base" | cut -c2-)"
  users=$(grep -rlw --include='*.ml' --include='*.mli' \
            --exclude-dir=_build --exclude-dir=_out \
            "$mod" lib bin bench examples perfbench \
          | grep -vxF -e "$ml" -e "${ml}i")
  if [ -z "$users" ]; then
    echo "$mod ($ml): referenced only from test/ or not at all"
    status=1
  fi
done
exit $status

#!/bin/sh
# Reachability check: every lib/ module and every exported value must be
# used by real code.
#
# For each lib/**/*.ml, look for its module name (as a whole word) in the
# .ml/.mli files of lib/, bin/, examples/ and perfbench/, other
# than the module's own .ml and .mli.  For each "val NAME" in a
# lib/**/*.mli, look for NAME the same way (by name, so a value whose
# name another module also uses counts as reached).  test/ does not count:
# code that only tests reach should be wired into a real surface or
# deleted.  Values listed in test/reachable.allow, each with its reason,
# are exempt; an entry there that is no longer a hit is reported too.
#
# Prints one line per finding and exits 1 if there is any; prints nothing
# and exits 0 otherwise.
#
#   sh test/reachable.sh

cd "$(dirname "$0")/.." || exit 2

status=0

# [users WORD FILE...]: files outside test/ naming WORD, minus FILE...
users() {
  word=$1
  shift
  found=$(grep -rlw --include='*.ml' --include='*.mli' \
            --exclude-dir=_build --exclude-dir=_out \
            -e "$word" lib bin examples perfbench)
  for own in "$@"; do
    found=$(printf '%s\n' "$found" | grep -vxF -e "$own")
  done
  printf %s "$found"
}

module_name() {
  base=$(basename "$1" "$2")
  printf %s "$(printf %s "$base" | cut -c1 | tr a-z A-Z)$(printf %s "$base" | cut -c2-)"
}

for ml in $(find lib -name '*.ml' | sort); do
  mod=$(module_name "$ml" .ml)
  if [ -z "$(users "$mod" "$ml" "${ml}i")" ]; then
    echo "$mod ($ml): referenced only from test/ or not at all"
    status=1
  fi
done

allowed=$(sed -n 's/^\([A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_'"'"']*\) .*/\1/p' test/reachable.allow)
hits=""
for mli in $(find lib -name '*.mli' | sort); do
  mod=$(module_name "$mli" .mli)
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if [ -z "$(users "$name" "${mli%i}" "$mli")" ]; then
      hits="$hits $mod.$name"
      if ! printf '%s\n' "$allowed" | grep -qxF "$mod.$name"; then
        echo "$mod.$name ($mli): referenced only from test/ or its own module"
        status=1
      fi
    fi
  done
done
for entry in $allowed; do
  case " $hits " in
    *" $entry "*) ;;
    *)
      echo "$entry: listed in test/reachable.allow but used outside test/ (or gone)"
      status=1
      ;;
  esac
done
exit $status

#!/usr/bin/env bash
# Indented output is byte for byte what the stdlib writes: the instance
# documents of `gen`, `thin --out` and `apply --out` (sorted keys) and the
# graph documents of `explore --format json` (insertion order), on a seeded
# instance and on a copy whose ids hold a non-ASCII character, a backslash
# and a double quote, are compared with json.dumps(..., indent=2) of what
# they parse to.  Run from the repository root; needs jq.  Writes its files
# to the current directory.
set -e
export PYTHONPATH=src
again() {
  python -c 'import json, sys; sys.stdout.write(json.dumps(json.load(open(sys.argv[1], encoding="utf-8")), indent=2, sort_keys=sys.argv[2] == "sorted") + "\n")' "$1" "$2"
}
python -m widthcalc gen --seed 7 --max-thick 5 --out ig.json
jq 'walk(if type == "string" and test("^[TFB][0-9]") then "\\\u00e9\"" + . else . end)' \
  ig.json > io.json
jq -e '.thick[0].id | startswith("\\\u00e9\"T")' io.json
again ig.json sorted | cmp - ig.json
for f in ig io; do
  python -m widthcalc thin $f.json --quiet --out $f-t.json > $f-s.jsonl
  jq -s '{moves: [.[1:][] | .move]}' $f-s.jsonl > $f-m.json
  jq -s '.[0] + .[1]' $f.json $f-m.json > $f-a.json
  python -m widthcalc apply $f-a.json --quiet --out $f-o.json
  python -m widthcalc explore $f.json --format json --cap 20 > $f-e.json
  python -m widthcalc explore $f.json --format json --cap 2 > $f-e2.json 2> /dev/null
  for out in $f-t.json $f-o.json; do again $out sorted | cmp - $out; done
  for out in $f-e.json $f-e2.json; do again $out insertion | cmp - $out; done
done

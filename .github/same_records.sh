# same_records STEM [RUN ARGS...] runs STEM.json at hash seeds 1 and 2 with
# the given run arguments, requires the same record bar its wall time, and
# verifies the first, kept as STEM-1.json
same_records() {
  stem="$1"
  shift
  for hashseed in 1 2; do
    PYTHONHASHSEED="$hashseed" matsub run "$stem.json" "$@" -o "$stem-$hashseed.json"
    grep -v '"wall_time_s"' "$stem-$hashseed.json" > "$stem-$hashseed.stripped"
  done
  cmp "$stem-1.stripped" "$stem-2.stripped"
  matsub verify "$stem.json" "$stem-1.json"
}

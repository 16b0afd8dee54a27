# Sourced by the CI smoke-test steps, after each sets $dir.
# expect_exit CODE CMD...: run CMD, show its stderr (kept in
# $dir/err.txt), and require exit CODE with no traceback.
expect_exit() {
  want=$1
  shift
  code=0
  "$@" 2> "$dir/err.txt" || code=$?
  cat "$dir/err.txt"
  test "$code" -eq "$want"
  if grep -q Traceback "$dir/err.txt"; then exit 1; fi
}

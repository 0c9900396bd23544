# expect CODE CMD...: run CMD and fail unless it exits with CODE and prints no
# Python traceback.  CMD's stderr is copied to the log and kept in
# "$RUNNER_TEMP/expect.err" for further checks.  Source it in a workflow step.
expect() {
  local code=$1 status=0
  shift
  "$@" 2> "$RUNNER_TEMP/expect.err" || status=$?
  cat "$RUNNER_TEMP/expect.err" >&2
  if [ "$status" -ne "$code" ]; then
    echo "expected exit $code, got $status: $*" >&2
    return 1
  fi
  if grep -q "Traceback" "$RUNNER_TEMP/expect.err"; then
    echo "traceback from: $*" >&2
    return 1
  fi
}

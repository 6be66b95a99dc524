#!/bin/sh
# Checks that every binary rejects a flag it does not declare: each
# `BIN CMD` pair runs as `BIN CMD --no-such-flag` (CMD "-" for binaries
# without commands) and must exit 2 with "error: unknown option
# --no-such-flag" within 10 s.
#
#   reject_unknown_flag.sh BIN CMD [BIN CMD]...
status=0
while [ $# -ge 2 ]; do
  bin=$1
  cmd=$2
  shift 2
  [ "$cmd" = - ] && cmd=
  err=$(timeout 10 "$bin" $cmd --no-such-flag 2>&1 >/dev/null)
  code=$?
  case $err in
    "error: unknown option --no-such-flag"*) ;;
    *) code="$code, stderr: $err" ;;
  esac
  if [ "$code" != 2 ]; then
    echo "FAIL: $bin $cmd --no-such-flag: exit $code"
    status=1
  fi
done
exit $status

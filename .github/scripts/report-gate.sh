#!/usr/bin/env bash
# report-gate.sh: the report gate shared by CI's coord and incremental
# jobs. It runs one report pass and checks that its bytes
# match a reference report and that its stderr shows the expected
# cache accounting.
#
# Usage: report-gate.sh REFERENCE NAME [-e PATTERN]... -- COMMAND [ARG]...
#
# Runs COMMAND with stdout to report_NAME.txt and stderr to
# stats_NAME.txt, prints the stderr, then fails unless report_NAME.txt
# is byte-identical to REFERENCE and stats_NAME.txt matches every
# PATTERN (grep basic regular expressions). For example, a warm report
# pass that must be fully cache-served:
#
#   report-gate.sh report_single.txt coord -e " 0 misses" -- \
#     ./pimbench -exp all -scale smoke -cache-dir coordcache
set -euo pipefail

usage() {
	echo "usage: $0 REFERENCE NAME [-e PATTERN]... -- COMMAND [ARG]..." >&2
	exit 2
}

[ $# -ge 2 ] || usage
reference=$1
name=$2
shift 2
patterns=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
	case $1 in
	-e)
		[ $# -ge 2 ] || usage
		patterns+=("$2")
		shift 2
		;;
	*) usage ;;
	esac
done
[ $# -ge 2 ] || usage
shift # the "--"

report=report_$name.txt
stats=stats_$name.txt
"$@" >"$report" 2>"$stats"
cat "$stats"
cmp "$reference" "$report"
for p in "${patterns[@]}"; do
	if ! grep -q -- "$p" "$stats"; then
		echo "report-gate: $stats does not match \"$p\"" >&2
		exit 1
	fi
done

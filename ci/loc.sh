#!/bin/sh
# Go line counts, non-test and test: the root module, each internal/*
# package, and the nested bench/ module. Run from the repository root.
count() { # count DIR [find args...]: "non-test test" lines of the .go files found
	dir=$1; shift
	src=$(find "$dir" "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	tst=$(find "$dir" "$@" -name '*_test.go' -exec cat {} + | wc -l)
	printf '%8d %8d' "$src" "$tst"
}
printf '%8s %8s  %s\n' non-test test package
for d in internal/*/; do printf '%s  %s\n' "$(count "$d")" "${d%/}"; done
printf '%s  %s\n' "$(count . -path ./bench -prune -o)" "root module (all of the above, cmd/, ci/, examples/, *.go)"
printf '%s  %s\n' "$(count bench)" "bench/ (its own module)"

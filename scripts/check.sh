#!/bin/sh
# check.sh — the local CI gate under its old name. The gate is defined once,
# in the Makefile's `check` target; `make -n check` lists what it runs.
exec make check

#!/bin/sh
# tenant_smoke.sh — end-to-end multi-tenant soak of the network daemon: two
# tenants with different Domino programs and admission quotas share one
# mp5d, mp5load drives both concurrently over loopback TCP (lossless), the
# alpha program is hot-swapped via POST /programs/alpha while its load is
# in flight, a second phase lands on the new version, and SIGTERM must
# drain cleanly with per-tenant/per-version differential equivalence.
set -eu

cd "$(dirname "$0")/.."
DIR=.smoke
mkdir -p "$DIR"
trap 'test -n "${DPID:-}" && kill -9 "$DPID" 2>/dev/null; rm -f "$DIR"/mp5d "$DIR"/mp5load "$DIR"/mp5d.out "$DIR"/alpha1.out "$DIR"/beta.out "$DIR"/*.dm' EXIT

if ! command -v curl >/dev/null 2>&1; then
    echo "tenant_smoke: SKIP (curl not found; the hot-swap leg needs it)"
    exit 0
fi

go build -o "$DIR/mp5d" ./cmd/mp5d
go build -o "$DIR/mp5load" ./cmd/mp5load

# Two tenant programs with different shapes (3 fields/2 registers vs
# 2 fields/1 register), plus a hot-swap candidate for alpha that keeps the
# wire field count (the swap contract) but changes the table geometry.
cat >"$DIR/alpha.dm" <<'EOF'
#define SLOTS 256

struct Packet {
    int dst;
    int util;
    int path_id;
};

int best_util [SLOTS] = {100};
int best_path [SLOTS] = {0};

void alpha (struct Packet p) {
    if (p.util < best_util[p.dst % SLOTS]) {
        best_util[p.dst % SLOTS] = p.util;
        best_path[p.dst % SLOTS] = p.path_id;
    }
}
EOF
cat >"$DIR/beta.dm" <<'EOF'
#define NFLOWS 128

struct Packet {
    int flow;
    int val;
};

int acc [NFLOWS] = {0};

void beta (struct Packet p) {
    acc[p.flow % NFLOWS] = acc[p.flow % NFLOWS] + p.val;
}
EOF
cat >"$DIR/alpha_v2.dm" <<'EOF'
#define SLOTS 128

struct Packet {
    int dst;
    int util;
    int path_id;
};

int best_util [SLOTS] = {50};
int best_path [SLOTS] = {0};

void alpha_v2 (struct Packet p) {
    if (p.util < best_util[p.dst % SLOTS]) {
        best_util[p.dst % SLOTS] = p.util;
        best_path[p.dst % SLOTS] = p.path_id;
    } else if (p.path_id == best_path[p.dst % SLOTS]) {
        best_util[p.dst % SLOTS] = p.util;
    }
}
EOF

"$DIR/mp5d" -tenant "alpha=$DIR/alpha.dm@192" -tenant "beta=$DIR/beta.dm@64" \
    -workers 4 -window 256 \
    -listen-tcp 127.0.0.1:0 -listen-udp "" -admin 127.0.0.1:0 \
    -verify >"$DIR/mp5d.out" 2>&1 &
DPID=$!

i=0
while ! grep -q '^mp5d: listening' "$DIR/mp5d.out" 2>/dev/null; do
    i=$((i + 1))
    test "$i" -le 50 || { echo "tenant_smoke: daemon never came up"; cat "$DIR/mp5d.out"; exit 1; }
    sleep 0.1
done
TCP=$(sed -n 's/^mp5d: listening tcp=\([^ ]*\).*/\1/p' "$DIR/mp5d.out")
ADMIN=$(sed -n 's/^mp5d: listening.*admin=\([^ ]*\).*/\1/p' "$DIR/mp5d.out")
grep -q '^mp5d: tenant alpha id=0' "$DIR/mp5d.out"
grep -q '^mp5d: tenant beta id=1' "$DIR/mp5d.out"

# Both tenants under load at once: alpha's phase-1 trace is long enough to
# still be in flight when the swap lands; beta runs against its quota the
# whole time. mp5load exits nonzero on any unacked packet.
"$DIR/mp5load" -tcp "$TCP" -program "$DIR/alpha.dm" -packets 20000 \
    -seed 7 -tenant 0 -window 128 >"$DIR/alpha1.out" 2>&1 &
LPID_A=$!
"$DIR/mp5load" -tcp "$TCP" -program "$DIR/beta.dm" -packets 8000 \
    -seed 11 -tenant 1 -window 64 >"$DIR/beta.out" 2>&1 &
LPID_B=$!

# Wait until alpha has actually admitted traffic (live /programs counters,
# not the sampled gauges), then hot-swap it mid-run.
i=0
while :; do
    SUB=$(curl -fsS "http://$ADMIN/programs" | sed -n 's/.*"name":"alpha"[^[]*"submitted":\([0-9]*\).*/\1/p')
    test -n "$SUB" && test "$SUB" -gt 0 && break
    i=$((i + 1))
    test "$i" -le 200 || { echo "tenant_smoke: alpha never admitted traffic"; exit 1; }
    sleep 0.02
done
curl -fsS -X POST --data-binary "@$DIR/alpha_v2.dm" \
    "http://$ADMIN/programs/alpha" | grep -q '"version":2' || {
    echo "tenant_smoke: hot swap did not report version 2"
    exit 1
}

wait "$LPID_A" || { echo "tenant_smoke: alpha load lost packets"; cat "$DIR/alpha1.out"; exit 1; }
wait "$LPID_B" || { echo "tenant_smoke: beta load lost packets"; cat "$DIR/beta.out"; exit 1; }

# Phase 2 lands entirely on alpha v2: the swapped program must carry live
# traffic, not just sit registered.
"$DIR/mp5load" -tcp "$TCP" -program "$DIR/alpha_v2.dm" -packets 6000 \
    -seed 13 -tenant 0 -window 128

# Per-tenant admin plane while the daemon runs.
curl -fsS "http://$ADMIN/stats" | grep -q '"tenants":\[{"name":"alpha"'
curl -fsS "http://$ADMIN/shardmap?tenant=beta" | grep -q '"owners"'
curl -fsS "http://$ADMIN/programs" | grep -q '"active_version":2'
# The tenant_* gauges are refreshed by the background sampler (every 250 ms),
# and the loads above can finish inside one period: poll, don't assume a tick.
for want in '^tenant_submitted_packets{tenant="alpha"}' \
            '^tenant_quota_inuse{tenant="beta"} 0$'; do
    i=0
    until curl -fsS "http://$ADMIN/metrics" | grep -q "$want"; do
        i=$((i + 1))
        test "$i" -le 100 || { echo "tenant_smoke: /metrics never showed $want"; exit 1; }
        sleep 0.05
    done
done

# Graceful drain: per-version equivalence detail plus the aggregate bar.
kill -TERM "$DPID"
wait "$DPID"
DPID=
for want in 'tenant alpha +v1 +[0-9]+ packets +OK' \
            'tenant alpha +v2 +[0-9]+ packets +OK' \
            'tenant beta +v1 +[0-9]+ packets +OK'; do
    grep -Eq "$want" "$DIR/mp5d.out" || {
        echo "tenant_smoke: missing per-tenant verify line: $want"
        cat "$DIR/mp5d.out"
        exit 1
    }
done
grep -q '^equivalence        OK' "$DIR/mp5d.out" || {
    echo "tenant_smoke: daemon did not report equivalence OK"
    cat "$DIR/mp5d.out"
    exit 1
}
echo "tenant_smoke: OK (two tenants, hot swap mid-run, zero loss, per-version equivalence verified)"

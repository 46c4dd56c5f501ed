// Command mp5top is a live terminal dashboard for a running mp5d: it polls
// the admin plane's /stats snapshot and renders throughput, queue depths,
// per-worker utilization, and the sampled wire-span stage latencies —
// "top" for the daemon's dataplane.
//
// Examples:
//
//	mp5top                             # watch 127.0.0.1:9591 at 1s
//	mp5top -admin 127.0.0.1:9591 -interval 500ms
//	mp5top -once                       # one plain snapshot (script-friendly)
//
// The refresh loop redraws in place with ANSI escapes; -once prints a
// single frame without any and exits, which is what the smoke scripts use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mp5/internal/dataplane"
	"mp5/internal/server"
)

func main() {
	admin := flag.String("admin", "127.0.0.1:9591", "mp5d admin-plane address to poll")
	interval := flag.Duration("interval", time.Second, "poll/redraw period")
	once := flag.Bool("once", false, "print one snapshot without screen control and exit")
	flag.Parse()

	url := "http://" + *admin + "/stats"
	if *once {
		st, err := poll(url)
		if err != nil {
			fatal(err)
		}
		os.Stdout.WriteString(render(st, nil))
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	var prev *server.StatsSnapshot
	// ANSI: clear screen once, then home-cursor + clear-to-end per frame so
	// the display updates without scrolling.
	fmt.Print("\x1b[2J")
	for {
		st, err := poll(url)
		frame := ""
		if err != nil {
			frame = fmt.Sprintf("mp5top: %s unreachable: %v\n", *admin, err)
		} else {
			frame = render(st, prev)
			prev = st
		}
		fmt.Print("\x1b[H\x1b[0J" + frame)
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

func poll(url string) (*server.StatsSnapshot, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var st server.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// render draws one frame. prev (the previous snapshot) feeds the deltas the
// server cannot compute for us — per-worker busy fraction over the poll
// interval; nil prev (first frame, -once) falls back to lifetime averages.
func render(st, prev *server.StatsSnapshot) string {
	var b strings.Builder
	status := strings.ToUpper(st.Status)
	fmt.Fprintf(&b, "mp5d %s  program=%s  workers=%d  up %s  [%s]\n\n",
		time.Unix(0, st.NowUnixNs).Format("15:04:05"), st.Program, st.Workers,
		fmtDur(st.UptimeSec), status)

	fmt.Fprintf(&b, "rates   rx %9.0f pps   ack %9.0f pps   egress %9.0f pps\n",
		st.RxPPS, st.AckPPS, st.EgressPPS)
	fmt.Fprintf(&b, "totals  rx tcp %d  udp %d   acks %d   drops %d   decode errs %d   aborts %d\n",
		st.RxTCP, st.RxUDP, st.Acks, st.IngressDropped, st.DecodeErrors, st.SubmitAborts)
	fmt.Fprintf(&b, "engine  submitted %d   completed %d   in-flight %d   steers %d   parks %d   moves %d\n\n",
		st.Submitted, st.Completed, st.InFlight, st.Steers, st.Parks, st.ShardMoves)

	fmt.Fprintf(&b, "queues  ingress %s   window %s   tickets pending %d (deepest slot %d)\n\n",
		bar(st.Ingress.Depth, st.Ingress.Cap), bar(st.Window.Depth, st.Window.Cap),
		st.TicketsPending, st.TicketsMax)

	fmt.Fprintf(&b, "%-8s %-14s %8s %10s %10s %6s\n",
		"worker", "mailbox", "parked", "processed", "egressed", "busy")
	for i, w := range st.WorkerStats {
		busy := lifetimeBusy(w, st.UptimeSec)
		if prev != nil && i < len(prev.WorkerStats) {
			dt := float64(st.NowUnixNs-prev.NowUnixNs) / 1e9
			if dt > 0 {
				busy = float64(w.BusyNs-prev.WorkerStats[i].BusyNs) / 1e9 / dt
			}
		}
		fmt.Fprintf(&b, "%-8d %-14s %8d %10d %10d %5.1f%%\n",
			w.ID, bar(w.Mailbox, w.MailboxCap), w.Parked, w.Processed, w.Egressed, 100*busy)
	}

	if len(st.Stages) > 0 {
		fmt.Fprintf(&b, "\nwire spans (sampled %d, dropped %d)\n", st.TraceSampled, st.TraceDropped)
		fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "stage", "count", "p50 µs", "p90 µs", "p99 µs")
		for _, sg := range st.Stages {
			fmt.Fprintf(&b, "%-14s %10d %10.1f %10.1f %10.1f\n",
				sg.Stage, sg.Count, sg.P50us, sg.P90us, sg.P99us)
		}
	}
	return b.String()
}

// lifetimeBusy is the -once/first-frame fallback utilization: cumulative
// busy time over uptime.
func lifetimeBusy(w dataplane.WorkerStat, uptimeSec float64) float64 {
	if uptimeSec <= 0 {
		return 0
	}
	return float64(w.BusyNs) / 1e9 / uptimeSec
}

// bar renders a depth/cap occupancy as "[##....] d/c".
func bar(depth, capacity int) string {
	const width = 6
	fill := 0
	if capacity > 0 {
		fill = depth * width / capacity
		if depth > 0 && fill == 0 {
			fill = 1
		}
		if fill > width {
			fill = width
		}
	}
	return fmt.Sprintf("[%s%s] %d/%d",
		strings.Repeat("#", fill), strings.Repeat(".", width-fill), depth, capacity)
}

func fmtDur(sec float64) string {
	d := time.Duration(sec * float64(time.Second)).Round(time.Second)
	return d.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mp5top:", err)
	os.Exit(1)
}

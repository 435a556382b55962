// Command parsl-monitor inspects a monitoring JSONL file produced by
// configuring the DFK with a monitor.FileSink (§4.6) — the file-backed
// variant of Parsl's monitoring database plus its visualization summary.
//
//	parsl-monitor -file run.jsonl            # summary
//	parsl-monitor -file run.jsonl -task 17   # one task's state history
//	parsl-monitor -file run.jsonl -timeline  # per-second concurrency trace
//
// Execution spans — one per attempt, from its "launched" event to the next
// "done", "failed" or "retrying" — feed the summary's span line and the
// timeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/monitor"
)

func main() {
	file := flag.String("file", "", "monitoring JSONL file")
	taskID := flag.Int64("task", -1, "show the state history of one task")
	timeline := flag.Bool("timeline", false, "print a per-second executing-attempt histogram")
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "parsl-monitor: -file is required")
		os.Exit(2)
	}

	events, err := monitor.ReadFile(*file)
	if err != nil {
		log.Fatalf("parsl-monitor: %v", err)
	}
	store := monitor.NewStore()
	for _, e := range events {
		store.Emit(e)
	}

	if *taskID >= 0 {
		printTask(os.Stdout, store, *taskID)
		return
	}
	if *timeline {
		printTimeline(os.Stdout, store)
		return
	}
	printSummary(os.Stdout, store)
}

func printSummary(w io.Writer, store *monitor.Store) {
	counts := store.StateCounts()
	var states []string
	for s := range counts {
		states = append(states, s)
	}
	sort.Strings(states)
	fmt.Fprintf(w, "%d events\n\nfinal task states:\n", store.Len())
	for _, s := range states {
		fmt.Fprintf(w, "  %-12s %6d\n", s, counts[s])
	}
	spans := store.ExecutionSpans()
	if len(spans) == 0 {
		return
	}
	var total time.Duration
	for _, sp := range spans {
		total += sp.End.Sub(sp.Start)
	}
	fmt.Fprintf(w, "\nexecution spans: %d, total task time %v, mean %v\n",
		len(spans), total.Round(time.Millisecond), (total / time.Duration(len(spans))).Round(time.Microsecond))
}

func printTask(w io.Writer, store *monitor.Store, id int64) {
	hist := store.TaskHistory(id)
	if len(hist) == 0 {
		fmt.Fprintf(w, "no events for task %d\n", id)
		return
	}
	fmt.Fprintf(w, "task %d (%s):\n", id, hist[0].App)
	for _, e := range hist {
		fmt.Fprintf(w, "  %s  %-10s -> %-10s executor=%s\n",
			e.At.Format("15:04:05.000"), orDash(e.From), e.To, orDash(e.Executor))
	}
}

func printTimeline(w io.Writer, store *monitor.Store) {
	spans := store.ExecutionSpans()
	if len(spans) == 0 {
		fmt.Fprintln(w, "no execution spans")
		return
	}
	t0 := spans[0].Start
	tEnd := t0
	for _, sp := range spans {
		if sp.End.After(tEnd) {
			tEnd = sp.End
		}
	}
	buckets := int(tEnd.Sub(t0)/time.Second) + 1
	running := make([]int, buckets)
	for _, sp := range spans {
		from := int(sp.Start.Sub(t0) / time.Second)
		to := int(sp.End.Sub(t0) / time.Second)
		for b := from; b <= to && b < buckets; b++ {
			running[b]++
		}
	}
	maxR := 1
	for _, r := range running {
		if r > maxR {
			maxR = r
		}
	}
	fmt.Fprintln(w, "executing attempts per second (Fig. 6-style trace):")
	for i, r := range running {
		bar := strings.Repeat("#", r*50/maxR)
		fmt.Fprintf(w, "  t+%3ds %4d %s\n", i, r, bar)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

package main

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// The two bars parsl-bench holds itself — every other scenario's verdict is
// its workload's — are shown to pass what CI measures and to fire on what
// they exist to catch.

func TestGraphRSSBar(t *testing.T) {
	// What the CI graph job reads: 200 k nodes at about 28 MiB.
	ok := &workload.GraphResult{Nodes: 200_000, PeakRSSBytes: 28 << 20}
	if err := checkGraphRSS(ok); err != nil {
		t.Fatalf("recycling drain: %v", err)
	}
	// A reclamation leak keeps every 480-byte record.
	leak := &workload.GraphResult{Nodes: 200_000, PeakRSSBytes: 28<<20 + 200_000*480}
	if err := checkGraphRSS(leak); err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("leaking drain: err = %v, want a budget violation", err)
	}
	// The budget is inclusive and scales with the DAG, not with a fixed size.
	if err := checkGraphRSS(&workload.GraphResult{Nodes: 1000, PeakRSSBytes: graphRSSLimit(1000)}); err != nil {
		t.Fatalf("drain at the limit: %v", err)
	}
	if err := checkGraphRSS(&workload.GraphResult{Nodes: 1000, PeakRSSBytes: graphRSSLimit(1000) + 1}); err == nil {
		t.Fatal("one byte over the limit passed")
	}
}

func TestShardScaleBar(t *testing.T) {
	for _, c := range []struct {
		name        string
		scale       float64
		cores       int
		wantSkipped bool
		wantErr     bool
	}{
		{"scales on a wide runner", 2.4, 4, false, false},
		{"at the bar", shardScaleBar, 8, false, false},
		{"below the bar on a wide runner", 1.2, 4, false, true},
		{"below the bar on two cores is skipped, not failed", 0.9, 2, true, false},
		{"above the bar on two cores is still skipped", 2.4, 2, true, false},
	} {
		skipped, err := checkShardScale(c.scale, c.cores)
		if skipped != c.wantSkipped || (err != nil) != c.wantErr {
			t.Errorf("%s: checkShardScale(%.2f, %d) = %v, %v; want skipped=%v err=%v",
				c.name, c.scale, c.cores, skipped, err, c.wantSkipped, c.wantErr)
		}
	}
}

// Flags go before the scenario: Go's flag package stops parsing at the first
// positional, so a trailing flag must be refused, not dropped.
func TestScenarioArg(t *testing.T) {
	for _, c := range []struct {
		args   []string // what flag.Args() holds after parsing
		want   string
		wantOK bool
	}{
		{nil, "all", true},
		{[]string{"all"}, "all", true},
		{[]string{"weak"}, "weak", true},          // parsl-bench -full weak
		{[]string{"weak", "-full"}, "", false},    // parsl-bench weak -full
		{[]string{"strong", "weak"}, "", false},   // one scenario per run
		{[]string{"no-such-scenario"}, "", false}, // usage, exit 2
	} {
		got, ok := scenarioArg(c.args)
		if got != c.want || ok != c.wantOK {
			t.Errorf("scenarioArg(%q) = %q, %v; want %q, %v", c.args, got, ok, c.want, c.wantOK)
		}
	}
}

package sched

import (
	"testing"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/serialize"
)

// fakeExec is a stub executor with settable load signals.
type fakeExec struct {
	label       string
	outstanding int
	workers     int
}

func (f *fakeExec) Label() string                           { return f.label }
func (f *fakeExec) Start() error                            { return nil }
func (f *fakeExec) Submit(serialize.TaskMsg) *future.Future { return future.Completed(nil) }
func (f *fakeExec) Outstanding() int                        { return f.outstanding }
func (f *fakeExec) Shutdown() error                         { return nil }

// fakeScalable adds the Scalable surface over fakeExec.
type fakeScalable struct{ fakeExec }

func (f *fakeScalable) ScaleOut(int) error    { return nil }
func (f *fakeScalable) ScaleIn(int) error     { return nil }
func (f *fakeScalable) ActiveBlocks() int     { return 1 }
func (f *fakeScalable) ConnectedWorkers() int { return f.workers }

// fakePool mimics threadpool: fixed capacity via Workers(), not Scalable.
type fakePool struct{ fakeExec }

func (f *fakePool) Workers() int { return f.workers }

func execs(exs ...executor.Executor) []executor.Executor { return exs }

func TestRandomSeededIsDeterministic(t *testing.T) {
	a, b := &fakeExec{label: "a"}, &fakeExec{label: "b"}
	pick := func() []string {
		s := NewRandom(42)
		var out []string
		for i := 0; i < 20; i++ {
			ex, err := s.Pick(execs(a, b))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ex.Label())
		}
		return out
	}
	first, second := pick(), pick()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("seeded Random diverged at %d: %v vs %v", i, first, second)
		}
	}
}

func TestRandomCoversAllCandidates(t *testing.T) {
	a, b, c := &fakeExec{label: "a"}, &fakeExec{label: "b"}, &fakeExec{label: "c"}
	s := NewRandom(7)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		ex, err := s.Pick(execs(a, b, c))
		if err != nil {
			t.Fatal(err)
		}
		seen[ex.Label()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random never picked some executor: %v", seen)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	a, b, c := &fakeExec{label: "a"}, &fakeExec{label: "b"}, &fakeExec{label: "c"}
	s := NewRoundRobin()
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i, w := range want {
		ex, err := s.Pick(execs(a, b, c))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Label() != w {
			t.Fatalf("pick %d = %s, want %s", i, ex.Label(), w)
		}
	}
}

// TestLeastOutstandingPrefersLessLoaded is the acceptance-criteria test: the
// capacity-aware policy must route to the executor with the smaller backlog.
func TestLeastOutstandingPrefersLessLoaded(t *testing.T) {
	busy := &fakeExec{label: "busy", outstanding: 100}
	idle := &fakeExec{label: "idle", outstanding: 2}
	s := NewLeastOutstanding()
	for i := 0; i < 10; i++ {
		ex, err := s.Pick(execs(busy, idle))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Label() != "idle" {
			t.Fatalf("picked %s over the idle executor", ex.Label())
		}
	}
}

// With capacity known, load is normalized per worker: 64 outstanding across
// 128 connected workers is lighter than 4 outstanding on a single worker.
func TestLeastOutstandingNormalizesByWorkers(t *testing.T) {
	big := &fakeScalable{fakeExec{label: "big", outstanding: 64, workers: 128}}
	small := &fakePool{fakeExec{label: "small", outstanding: 4, workers: 1}}
	ex, err := NewLeastOutstanding().Pick(execs(small, big))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Label() != "big" {
		t.Fatalf("picked %s; want the per-worker-lighter big pool", ex.Label())
	}
}

func TestLoadOfReadsScalableWorkers(t *testing.T) {
	ex := &fakeScalable{fakeExec{label: "x", outstanding: 5, workers: 8}}
	l := LoadOf(ex)
	if l.Label != "x" || l.Outstanding != 5 || l.Workers != 8 {
		t.Fatalf("LoadOf = %+v", l)
	}
	if got := l.PerWorker(); got != 5.0/8.0 {
		t.Fatalf("PerWorker = %v", got)
	}
	if l := LoadOf(&fakeExec{label: "y", outstanding: 3}); l.Workers != 0 || l.PerWorker() != 3 {
		t.Fatalf("LoadOf(unknown capacity) = %+v", l)
	}
}

func TestEmptyCandidates(t *testing.T) {
	for _, s := range []Scheduler{NewRandom(1), NewRoundRobin(), NewLeastOutstanding()} {
		if _, err := s.Pick(nil); err != ErrNoExecutors {
			t.Fatalf("%s: err = %v, want ErrNoExecutors", s.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"":                  "random",
		"random":            "random",
		"round-robin":       "round-robin",
		"least-outstanding": "least-outstanding",
	} {
		s, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != want {
			t.Fatalf("ByName(%q).Name() = %s", name, s.Name())
		}
	}
	if _, err := ByName("bogus", 0); err == nil {
		t.Fatal("ByName(bogus) did not error")
	}
}

func TestFrozenSnapshot(t *testing.T) {
	ex := &fakeScalable{fakeExec{label: "x", outstanding: 2, workers: 4}}
	f := Freeze(ex, 6)
	l := LoadOf(f)
	if l.Outstanding != 8 || l.Workers != 4 || l.Label != "x" {
		t.Fatalf("frozen load = %+v", l)
	}
	// The snapshot is immune to live-counter changes.
	ex.outstanding = 100
	if got := LoadOf(f).Outstanding; got != 8 {
		t.Fatalf("after a live change, Outstanding = %d, want 8 (snapshot + overlay)", got)
	}
	// The overlay steers LeastOutstanding away from an executor that looks
	// idle but has routed work en route.
	idle := &fakeExec{label: "idle"}
	picked, err := NewLeastOutstanding().Pick(execs(Freeze(idle, 50), &fakeExec{label: "other", outstanding: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if picked.Label() != "other" {
		t.Fatalf("picked %s despite overlay", picked.Label())
	}
}

package baselines

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestInsertAssignsDistinctIDs(t *testing.T) {
	s := newDocStore(0)
	id1 := s.insert("fw", doc{"state": "WAITING"})
	id2 := s.insert("fw", doc{"state": "WAITING"})
	if id1 == id2 {
		t.Fatal("ids collide")
	}
	// Both documents are stored and findable; nothing else is.
	for i := 0; i < 2; i++ {
		if _, err := s.findOneAndUpdate("fw", doc{"state": "WAITING"}, doc{"state": "SEEN"}); err != nil {
			t.Fatalf("document %d: %v", i+1, err)
		}
	}
	if _, err := s.findOneAndUpdate("fw", doc{"state": "WAITING"}, doc{}); !errors.Is(err, errNotFound) {
		t.Fatalf("third match: %v", err)
	}
	if _, err := s.findOneAndUpdate("fw", doc{"state": "DONE"}, doc{}); !errors.Is(err, errNotFound) {
		t.Fatalf("unmatched filter: %v", err)
	}
}

func TestFindOneAndUpdateClaims(t *testing.T) {
	s := newDocStore(0)
	s.insert("fw", doc{"state": "WAITING", "payload": "a"})
	got, err := s.findOneAndUpdate("fw", doc{"state": "WAITING"}, doc{"state": "RUNNING"})
	if err != nil {
		t.Fatal(err)
	}
	if got["payload"] != "a" || got["state"] != "RUNNING" {
		t.Fatalf("doc = %v", got)
	}
	// Claimed exactly once.
	if _, err := s.findOneAndUpdate("fw", doc{"state": "WAITING"}, doc{"state": "RUNNING"}); !errors.Is(err, errNotFound) {
		t.Fatalf("second claim: %v", err)
	}
}

func TestConcurrentClaimsAreExclusive(t *testing.T) {
	s := newDocStore(0)
	const n = 50
	for i := 0; i < n; i++ {
		s.insert("fw", doc{"state": "WAITING"})
	}
	var claimed sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := s.findOneAndUpdate("fw", doc{"state": "WAITING"}, doc{"state": "RUNNING"})
				if err != nil {
					return
				}
				if _, dup := claimed.LoadOrStore(got["_id"], true); dup {
					t.Errorf("document %v claimed twice", got["_id"])
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	claimed.Range(func(any, any) bool { total++; return true })
	if total != n {
		t.Fatalf("claimed %d docs, want %d", total, n)
	}
}

func TestUpdateByID(t *testing.T) {
	s := newDocStore(0)
	id := s.insert("fw", doc{"state": "WAITING"})
	if err := s.updateByID("fw", id, doc{"state": "COMPLETED"}); err != nil {
		t.Fatal(err)
	}
	if d, err := s.findOneAndUpdate("fw", doc{"state": "COMPLETED"}, doc{}); err != nil || d["_id"] != id {
		t.Fatalf("updated document = %v, %v", d, err)
	}
	if err := s.updateByID("fw", 999, doc{}); !errors.Is(err, errNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpLatencySerializesUnderLock(t *testing.T) {
	s := newDocStore(10 * time.Millisecond)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.insert("fw", doc{})
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("5 ops in %v: lock contention not modeled", elapsed)
	}
}

func TestConnectionLimit(t *testing.T) {
	s := newDocStore(0)
	s.maxConnections = 2
	if err := s.connect(); err != nil {
		t.Fatal(err)
	}
	if err := s.connect(); err != nil {
		t.Fatal(err)
	}
	if err := s.connect(); !errors.Is(err, errTooManyConnections) {
		t.Fatalf("err = %v", err)
	}
	s.release()
	if err := s.connect(); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if err := s.connect(); !errors.Is(err, errTooManyConnections) {
		t.Fatalf("limit of 2 reached again: err = %v", err)
	}
}

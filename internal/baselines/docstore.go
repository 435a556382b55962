package baselines

// A MongoDB-like document store: the substrate behind the FireWorks baseline
// (§5: FireWorks "uses a centralized MongoDB-based LaunchPad to store
// tasks"). It models the two properties that made FireWorks the slowest
// framework in the paper's evaluation: per-operation latency (client⇄DB round
// trip plus server work) and a store-wide lock that serializes writers, so
// throughput collapses as workers contend.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// doc is one stored document.
type doc map[string]any

// errTooManyConnections mirrors MongoDB's connection exhaustion, which is
// what capped FireWorks at ~1024 workers on Blue Waters.
var errTooManyConnections = errors.New("docstore: too many connections")

// errNotFound is returned by queries that match nothing.
var errNotFound = errors.New("docstore: no matching document")

// docStore is the database.
type docStore struct {
	// opLatency is charged, under the store lock, to every operation.
	opLatency time.Duration
	// maxConnections caps concurrent clients (0 = unlimited).
	maxConnections int

	mu     sync.Mutex
	colls  map[string][]doc
	nextID int64
	conns  atomic.Int64
}

// newDocStore creates an empty store with the given per-op latency.
func newDocStore(opLatency time.Duration) *docStore {
	return &docStore{opLatency: opLatency, colls: make(map[string][]doc)}
}

// connect acquires a client connection; release returns it.
func (s *docStore) connect() error {
	if s.maxConnections > 0 && s.conns.Add(1) > int64(s.maxConnections) {
		s.conns.Add(-1)
		return fmt.Errorf("%w (limit %d)", errTooManyConnections, s.maxConnections)
	}
	if s.maxConnections == 0 {
		s.conns.Add(1)
	}
	return nil
}

// release returns a connection to the pool.
func (s *docStore) release() { s.conns.Add(-1) }

// charge simulates the DB round trip while holding the store lock — the
// contention model.
func (s *docStore) charge() {
	if s.opLatency > 0 {
		time.Sleep(s.opLatency)
	}
}

// insert adds a document and returns its assigned "_id".
func (s *docStore) insert(coll string, d doc) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.charge()
	s.nextID++
	cp := doc{"_id": s.nextID}
	for k, v := range d {
		cp[k] = v
	}
	s.colls[coll] = append(s.colls[coll], cp)
	return s.nextID
}

// match reports whether doc satisfies an equality filter.
func match(d doc, filter doc) bool {
	for k, v := range filter {
		if d[k] != v {
			return false
		}
	}
	return true
}

// findOneAndUpdate atomically finds the first document matching filter and
// applies set — the claim primitive FireWorks workers use to check out a
// firework from the LaunchPad.
func (s *docStore) findOneAndUpdate(coll string, filter, set doc) (doc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.charge()
	for _, d := range s.colls[coll] {
		if match(d, filter) {
			for k, v := range set {
				d[k] = v
			}
			out := doc{}
			for k, v := range d {
				out[k] = v
			}
			return out, nil
		}
	}
	return nil, errNotFound
}

// updateByID applies set to the document with the given "_id".
func (s *docStore) updateByID(coll string, id int64, set doc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.charge()
	for _, d := range s.colls[coll] {
		if d["_id"] == id {
			for k, v := range set {
				d[k] = v
			}
			return nil
		}
	}
	return errNotFound
}

// Package globus simulates the Globus transfer service that Parsl's data
// manager uses for third-party transfers (§4.5) and the Globus Auth identity
// platform it authenticates with (§4.6). The real service moves files
// between registered endpoints without routing bytes through the client;
// this simulation reproduces that control/data split: a transfer is an
// asynchronous server-side job between two named endpoints, observable
// through task status polls, with bandwidth-derived completion times.
package globus

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by the service.
var (
	ErrAuth       = errors.New("globus: invalid or expired token")
	ErrNoEndpoint = errors.New("globus: unknown endpoint")
	ErrNoFile     = errors.New("globus: no such file")
)

// TransferStatus is the lifecycle of a transfer task.
type TransferStatus string

// Transfer states, matching the Globus task model.
const (
	StatusActive    TransferStatus = "ACTIVE"
	StatusSucceeded TransferStatus = "SUCCEEDED"
	StatusFailed    TransferStatus = "FAILED"
)

// Endpoint is a named storage location with an in-memory namespace.
type Endpoint struct {
	Name string

	mu    sync.RWMutex
	files map[string][]byte
}

// Put writes a file into the endpoint's namespace.
func (e *Endpoint) Put(path string, data []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	e.files[path] = cp
}

// Get reads a file from the endpoint's namespace.
func (e *Endpoint) Get(path string) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	data, ok := e.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s:%s", ErrNoFile, e.Name, path)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Task is an asynchronous third-party transfer job.
type Task struct {
	ID       string
	Src, Dst string // "endpoint:path"

	mu     sync.Mutex
	status TransferStatus
	reason string
	done   chan struct{}
}

// Status returns the task's current status and failure reason (if any).
func (t *Task) Status() (TransferStatus, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.reason
}

// Wait blocks until the task leaves ACTIVE or the timeout expires.
func (t *Task) Wait(timeout time.Duration) (TransferStatus, error) {
	select {
	case <-t.done:
		s, reason := t.Status()
		if s == StatusFailed {
			return s, fmt.Errorf("globus: transfer %s failed: %s", t.ID, reason)
		}
		return s, nil
	case <-time.After(timeout):
		return StatusActive, fmt.Errorf("globus: transfer %s timed out after %v", t.ID, timeout)
	}
}

func (t *Task) finish(s TransferStatus, reason string) {
	t.mu.Lock()
	if t.status == StatusActive {
		t.status = s
		t.reason = reason
		close(t.done)
	}
	t.mu.Unlock()
}

// Service is the simulated Globus transfer service plus Auth.
type Service struct {
	// BytesPerSecond models WAN bandwidth for completion-time estimates.
	// Zero means instantaneous transfers (useful in unit tests).
	BytesPerSecond float64
	// BaseLatency is per-transfer control overhead.
	BaseLatency time.Duration

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	tokens    map[string]time.Time
}

// NewService creates an empty simulated Globus deployment.
func NewService() *Service {
	return &Service{
		endpoints: make(map[string]*Endpoint),
		tokens:    make(map[string]time.Time),
	}
}

// Login models the Globus Auth native-app flow (§4.6): it issues a cached
// access token with the given lifetime.
func (s *Service) Login(lifetime time.Duration) string {
	b := make([]byte, 16)
	_, _ = rand.Read(b)
	tok := hex.EncodeToString(b)
	s.mu.Lock()
	s.tokens[tok] = time.Now().Add(lifetime)
	s.mu.Unlock()
	return tok
}

// validate checks a token.
func (s *Service) validate(token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, ok := s.tokens[token]
	if !ok || time.Now().After(exp) {
		return ErrAuth
	}
	return nil
}

// AddEndpoint registers a named endpoint and returns it.
func (s *Service) AddEndpoint(name string) *Endpoint {
	ep := &Endpoint{Name: name, files: make(map[string][]byte)}
	s.mu.Lock()
	s.endpoints[name] = ep
	s.mu.Unlock()
	return ep
}

// Endpoint looks up a registered endpoint.
func (s *Service) Endpoint(name string) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEndpoint, name)
	}
	return ep, nil
}

// Submit starts an asynchronous third-party transfer of srcPath on endpoint
// src to dstPath on endpoint dst. The bytes never pass through the caller.
func (s *Service) Submit(token, src, srcPath, dst, dstPath string) (*Task, error) {
	if err := s.validate(token); err != nil {
		return nil, err
	}
	srcEP, err := s.Endpoint(src)
	if err != nil {
		return nil, err
	}
	dstEP, err := s.Endpoint(dst)
	if err != nil {
		return nil, err
	}

	b := make([]byte, 8)
	_, _ = rand.Read(b)
	task := &Task{
		ID:     hex.EncodeToString(b),
		Src:    src + ":" + srcPath,
		Dst:    dst + ":" + dstPath,
		status: StatusActive,
		done:   make(chan struct{}),
	}
	go s.run(task, srcEP, srcPath, dstEP, dstPath)
	return task, nil
}

func (s *Service) run(task *Task, srcEP *Endpoint, srcPath string, dstEP *Endpoint, dstPath string) {
	if s.BaseLatency > 0 {
		time.Sleep(s.BaseLatency)
	}
	data, err := srcEP.Get(srcPath)
	if err != nil {
		task.finish(StatusFailed, err.Error())
		return
	}
	if s.BytesPerSecond > 0 {
		d := time.Duration(float64(len(data)) / s.BytesPerSecond * float64(time.Second))
		time.Sleep(d)
	}
	dstEP.Put(dstPath, data)
	task.finish(StatusSucceeded, "")
}

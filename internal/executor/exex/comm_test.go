package exex

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewCommValidation(t *testing.T) {
	if _, err := newComm(0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := newComm(-3); err == nil {
		t.Fatal("negative size accepted")
	}
	c, err := newComm(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.size != 4 {
		t.Fatalf("size = %d", c.size)
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	c, _ := newComm(2)
	if err := c.send(0, 1, 7, []byte("task")); err != nil {
		t.Fatal(err)
	}
	env, err := c.recv(1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if env.Source != 0 || env.Tag != 7 || string(env.Data) != "task" {
		t.Fatalf("env = %+v", env)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	c, _ := newComm(2)
	done := make(chan envelope, 1)
	go func() {
		env, err := c.recv(1, anySource, 0)
		if err == nil {
			done <- env
		}
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("recv returned before send")
	default:
	}
	_ = c.send(0, 1, 0, []byte("x"))
	select {
	case env := <-done:
		if string(env.Data) != "x" {
			t.Fatalf("env = %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("recv never returned")
	}
}

func TestRecvAnySource(t *testing.T) {
	c, _ := newComm(4)
	_ = c.send(3, 0, 1, []byte("from-3"))
	env, err := c.recv(0, anySource, 1)
	if err != nil {
		t.Fatal(err)
	}
	if env.Source != 3 {
		t.Fatalf("source = %d", env.Source)
	}
}

func TestRecvTagFiltering(t *testing.T) {
	c, _ := newComm(2)
	_ = c.send(0, 1, 5, []byte("five"))
	_ = c.send(0, 1, 9, []byte("nine"))
	env, err := c.recv(1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Data) != "nine" {
		t.Fatalf("tag filter failed: %+v", env)
	}
	env, _ = c.recv(1, 0, 5)
	if string(env.Data) != "five" {
		t.Fatalf("remaining message lost: %+v", env)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	c, _ := newComm(2)
	for i := 0; i < 10; i++ {
		_ = c.send(0, 1, 0, []byte{byte(i)})
	}
	for i := 0; i < 10; i++ {
		env, err := c.recv(1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if env.Data[0] != byte(i) {
			t.Fatalf("order violated at %d: got %d", i, env.Data[0])
		}
	}
}

func TestRankRangeErrors(t *testing.T) {
	c, _ := newComm(2)
	if err := c.send(0, 5, 0, nil); !errors.Is(err, errRankRange) {
		t.Fatalf("err = %v", err)
	}
	if err := c.send(-1, 0, 0, nil); !errors.Is(err, errRankRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.recv(9, 0, 0); !errors.Is(err, errRankRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	c, _ := newComm(3)
	errs := make(chan error, 2)
	for r := 1; r <= 2; r++ {
		go func(r int) {
			_, err := c.recv(r, anySource, 0)
			errs <- err
		}(r)
	}
	time.Sleep(5 * time.Millisecond)
	c.abort()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errAborted) {
				t.Fatalf("err = %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("recv not unblocked by abort")
		}
	}
}

func TestAbortFailsFutureOps(t *testing.T) {
	c, _ := newComm(2)
	c.abort()
	if err := c.send(0, 1, 0, nil); !errors.Is(err, errAborted) {
		t.Fatalf("send after abort = %v", err)
	}
	if _, err := c.recv(1, 0, 0); !errors.Is(err, errAborted) {
		t.Fatalf("recv after abort = %v", err)
	}
	// Double abort is a no-op.
	c.abort()
	if !c.isAborted() {
		t.Fatal("second abort revived the communicator")
	}
}

func TestDataIsolation(t *testing.T) {
	c, _ := newComm(2)
	buf := []byte("mutable")
	_ = c.send(0, 1, 0, buf)
	buf[0] = 'X'
	env, _ := c.recv(1, 0, 0)
	if string(env.Data) != "mutable" {
		t.Fatalf("sender mutation visible: %q", env.Data)
	}
}

func TestLatency(t *testing.T) {
	c, _ := newComm(2)
	c.setLatency(10 * time.Millisecond)
	start := time.Now()
	_ = c.send(0, 1, 0, []byte("x"))
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestManagerWorkerPattern(t *testing.T) {
	// The EXEX deployment shape: rank 0 distributes, ranks 1..n echo back.
	const n = 8
	c, _ := newComm(n)
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			env, err := c.recv(r, 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			_ = c.send(r, 0, 2, append([]byte("done-"), env.Data...))
		}(r)
	}
	for r := 1; r < n; r++ {
		_ = c.send(0, r, 1, []byte(fmt.Sprintf("t%d", r)))
	}
	results := map[int]bool{}
	for i := 1; i < n; i++ {
		env, err := c.recv(0, anySource, 2)
		if err != nil {
			t.Fatal(err)
		}
		results[env.Source] = true
	}
	wg.Wait()
	if len(results) != n-1 {
		t.Fatalf("results from %d workers, want %d", len(results), n-1)
	}
}

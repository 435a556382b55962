package globus

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLoginAndTokenValidation(t *testing.T) {
	s := NewService()
	tok := s.Login(time.Hour)
	if err := s.validate(tok); err != nil {
		t.Fatal(err)
	}
	if err := s.validate("bogus"); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpiredToken(t *testing.T) {
	s := NewService()
	tok := s.Login(-time.Second)
	if _, err := s.Submit(tok, "a", "f", "b", "f"); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndpointNamespace(t *testing.T) {
	s := NewService()
	ep := s.AddEndpoint("mdf")
	ep.Put("/data/x.csv", []byte("1,2,3"))
	data, err := ep.Get("/data/x.csv")
	if err != nil || string(data) != "1,2,3" {
		t.Fatalf("get = %q, %v", data, err)
	}
	if _, err := ep.Get("/nope"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("err = %v", err)
	}
	// Isolation: mutating the returned slice must not touch the store.
	data[0] = 'X'
	again, _ := ep.Get("/data/x.csv")
	if string(again) != "1,2,3" {
		t.Fatal("endpoint data mutated through Get result")
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	s := NewService()
	src := s.AddEndpoint("alcf")
	dst := s.AddEndpoint("midway")
	src.Put("/sim/catalog.bin", []byte("catalog-bytes"))
	tok := s.Login(time.Hour)

	task, err := s.Submit(tok, "alcf", "/sim/catalog.bin", "midway", "/stage/catalog.bin")
	if err != nil {
		t.Fatal(err)
	}
	st, err := task.Wait(2 * time.Second)
	if err != nil || st != StatusSucceeded {
		t.Fatalf("wait = %v, %v", st, err)
	}
	got, err := dst.Get("/stage/catalog.bin")
	if err != nil || string(got) != "catalog-bytes" {
		t.Fatalf("dst = %q, %v", got, err)
	}
}

func TestTransferMissingSourceFails(t *testing.T) {
	s := NewService()
	s.AddEndpoint("a")
	s.AddEndpoint("b")
	tok := s.Login(time.Hour)
	task, err := s.Submit(tok, "a", "/missing", "b", "/x")
	if err != nil {
		t.Fatal(err)
	}
	st, err := task.Wait(2 * time.Second)
	if st != StatusFailed || err == nil {
		t.Fatalf("wait = %v, %v", st, err)
	}
}

func TestTransferUnknownEndpoints(t *testing.T) {
	s := NewService()
	s.AddEndpoint("a")
	tok := s.Login(time.Hour)
	if _, err := s.Submit(tok, "nope", "/x", "a", "/x"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Submit(tok, "a", "/x", "nope", "/x"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestBandwidthDelaysCompletion(t *testing.T) {
	s := NewService()
	s.BytesPerSecond = 1000 // 1 KB/s
	src := s.AddEndpoint("a")
	s.AddEndpoint("b")
	src.Put("/f", make([]byte, 50)) // 50 ms at 1 KB/s
	tok := s.Login(time.Hour)
	start := time.Now()
	task, _ := s.Submit(tok, "a", "/f", "b", "/f")
	if _, err := task.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("transfer finished in %v, bandwidth not modeled", elapsed)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := NewService()
	s.BaseLatency = time.Second
	src := s.AddEndpoint("a")
	s.AddEndpoint("b")
	src.Put("/f", []byte("x"))
	tok := s.Login(time.Hour)
	task, _ := s.Submit(tok, "a", "/f", "b", "/f")
	st, err := task.Wait(10 * time.Millisecond)
	if err == nil || st != StatusActive {
		t.Fatalf("wait = %v, %v", st, err)
	}
}

func TestConcurrentTransfers(t *testing.T) {
	s := NewService()
	src := s.AddEndpoint("src")
	dst := s.AddEndpoint("dst")
	tok := s.Login(time.Hour)
	const n = 32
	for i := 0; i < n; i++ {
		src.Put(pathOf(i), []byte{byte(i)})
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task, err := s.Submit(tok, "src", pathOf(i), "dst", pathOf(i))
			if err != nil {
				t.Error(err)
				return
			}
			if st, err := task.Wait(5 * time.Second); err != nil || st != StatusSucceeded {
				t.Errorf("transfer %d: %v %v", i, st, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if _, err := dst.Get(pathOf(i)); err != nil {
			t.Fatalf("file %d missing at destination: %v", i, err)
		}
	}
}

func pathOf(i int) string { return "/f" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutStats(t *testing.T) {
	c := New(Options{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", 42)
	v, ok := c.Get("k")
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v, %v", v, ok)
	}
	c.Put("nil", nil)
	if v, ok := c.Get("nil"); !ok || v != nil {
		t.Fatal("cached nil result must hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Stores != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutEmptyKeyIgnored(t *testing.T) {
	c := New(Options{})
	c.Put("", 1)
	if c.Len() != 0 {
		t.Fatal("empty key stored")
	}
}

func TestContainsDoesNotCount(t *testing.T) {
	c := New(Options{})
	c.Put("k", 1)
	if !c.Contains("k") || c.Contains("x") {
		t.Fatal("Contains wrong")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains perturbed counters: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b, the LRU entry
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted instead of LRU", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: no eviction
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Fatalf("refresh lost: %v", v)
	}
}

func TestDelete(t *testing.T) {
	c := New(Options{})
	c.Put("a", 1)
	c.Delete("a")
	c.Delete("missing") // no-op
	if c.Len() != 0 {
		t.Fatal("delete failed")
	}
}

func TestSeed(t *testing.T) {
	c := New(Options{})
	c.Seed(func(fn func(string, any) bool) {
		for i := 0; i < 3; i++ {
			if !fn(fmt.Sprintf("k%d", i), i) {
				return
			}
		}
	})
	if c.Len() != 3 {
		t.Fatalf("seeded %d entries", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Options{MaxEntries: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				c.Put(k, i)
				c.Get(k)
				c.Contains(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("bound exceeded: %d", c.Len())
	}
}

package serialize

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	fn := func(args []any, kwargs map[string]any) (any, error) { return "ok", nil }
	if err := r.Register("hello", fn); err != nil {
		t.Fatal(err)
	}
	e, ok := r.Lookup("hello")
	if !ok {
		t.Fatal("lookup failed")
	}
	v, err := e.Fn(nil, nil)
	if err != nil || v != "ok" {
		t.Fatalf("fn: %v %v", v, err)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("lookup of missing app succeeded")
	}
}

func TestRegistryRejectsDuplicatesAndInvalid(t *testing.T) {
	r := NewRegistry()
	fn := func([]any, map[string]any) (any, error) { return nil, nil }
	if err := r.Register("a", fn); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", fn); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	if err := r.Register("", fn); err == nil {
		t.Fatal("empty name allowed")
	}
	if err := r.Register("b", nil); err == nil {
		t.Fatal("nil fn allowed")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	fn := func([]any, map[string]any) (any, error) { return nil, nil }
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(n, fn); err != nil {
			t.Fatal(err)
		}
	}
	names := r.Names()
	if strings.Join(names, ",") != "alpha,mid,zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	fn := func([]any, map[string]any) (any, error) { return nil, nil }
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = r.Register(strings.Repeat("x", i+1), fn)
			r.Lookup("x")
			r.Names()
		}(i)
	}
	wg.Wait()
	if len(r.Names()) != 50 {
		t.Fatalf("got %d names", len(r.Names()))
	}
}

func TestBodyHashDependsOnNameAndVersion(t *testing.T) {
	a := Entry{Name: "f", Version: "v1"}
	b := Entry{Name: "f", Version: "v2"}
	c := Entry{Name: "g", Version: "v1"}
	if a.BodyHash() == b.BodyHash() {
		t.Fatal("version change did not change hash")
	}
	if a.BodyHash() == c.BodyHash() {
		t.Fatal("name change did not change hash")
	}
	if a.BodyHash() != (Entry{Name: "f", Version: "v1"}).BodyHash() {
		t.Fatal("hash not deterministic")
	}
}

func TestTaskRoundTrip(t *testing.T) {
	m := TaskMsg{
		ID:     42,
		App:    "align",
		Args:   []any{"chr1", 3, 2.5, []string{"a", "b"}},
		Kwargs: map[string]any{"threads": 4},
	}
	b, err := EncodeTask(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTask(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.App != "align" || len(got.Args) != 4 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Args[0] != "chr1" || got.Args[1] != 3 || got.Args[2] != 2.5 {
		t.Fatalf("args = %v", got.Args)
	}
	if got.Kwargs["threads"] != 4 {
		t.Fatalf("kwargs = %v", got.Kwargs)
	}
}

func TestResultRoundTrip(t *testing.T) {
	m := ResultMsg{ID: 7, Value: "done", Err: "", WorkerID: "w3"}
	got, err := DecodeResult(EncodeResult(m))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeTask([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded as task")
	}
	if _, err := DecodeResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage decoded as result")
	}
}

// Property: encode/decode is lossless for int/string/float payloads.
func TestQuickTaskRoundTrip(t *testing.T) {
	prop := func(id int64, app string, i int, s string, f float64) bool {
		m := TaskMsg{ID: id, App: app, Args: []any{i, s, f}}
		b, err := EncodeTask(m)
		if err != nil {
			return false
		}
		got, err := DecodeTask(b)
		if err != nil {
			return false
		}
		return got.ID == id && got.App == app &&
			got.Args[0] == i && got.Args[1] == s && got.Args[2] == f
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPayloadHashGolden pins the payload digest — the args component of
// every memoization key the DFK computes — for a spread of argument shapes
// across the whole value-codec tag set. Checkpoint files persist these, so
// the values must never drift; a change here means every existing
// checkpoint goes cold (if that is ever intended, bump payloadVersion and
// regenerate).
func TestPayloadHashGolden(t *testing.T) {
	cases := []struct {
		args []any
		kw   map[string]any
		want string
	}{
		{nil, nil, "d0a397186727310c"},
		{[]any{int(42)}, nil, "5ea12fb6efd94a88"},
		{[]any{"chr1", 3, 2.5}, nil, "a766a3dadf2f1481"},
		{[]any{[]string{"a", "b"}, []int{1, 2, 3}}, nil, "a72ecdb561b6d449"},
		{[]any{1, "x"}, map[string]any{"a": "a-v", "b": "b-v", "c": "c-v"}, "9048989477f80b9a"},
		{[]any{int64(7), true, nil}, map[string]any{"threads": 4, "mode": "fast"}, "6007252735e5e249"},
		{[]any{[]byte{0, 1, 2}, []float64{1.5}}, map[string]any{"f": 3.14}, "512f6b90b95ea80b"},
		{[]any{[]any{1, "nested"}, map[string]string{"k": "v"}}, nil, "e9a96da6a538c1f4"},
	}
	for i, c := range cases {
		p, err := EncodeArgs(c.args, c.kw)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := p.ArgsHash(); got != c.want {
			t.Fatalf("case %d: payload hash = %s, want golden %s", i, got, c.want)
		}
	}
}

// TestPayloadRoundTripAllTags round-trips a value of every fast-path tag
// plus a gob-fallback struct, checking type and value fidelity.
func TestPayloadRoundTripAllTags(t *testing.T) {
	type custom struct{ N int }
	RegisterType(custom{})
	args := []any{
		nil, true, false, int(-3), int64(1 << 40), 2.5, "s",
		[]byte{1, 2}, []string{"a"}, []int{-1, 2}, []float64{0.5},
		[]any{1, "in", nil}, custom{N: 9},
	}
	kw := map[string]any{
		"m":  map[string]any{"x": 1},
		"ss": map[string]string{"k": "v"},
	}
	p, err := EncodeArgs(args, kw)
	if err != nil {
		t.Fatal(err)
	}
	gotArgs, gotKw, err := p.DecodeArgs()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotArgs) != len(args) {
		t.Fatalf("args len = %d, want %d", len(gotArgs), len(args))
	}
	for i := range args {
		if !reflect.DeepEqual(gotArgs[i], args[i]) {
			t.Fatalf("arg %d: %#v != %#v", i, gotArgs[i], args[i])
		}
	}
	if !reflect.DeepEqual(gotKw, kw) {
		t.Fatalf("kwargs: %#v != %#v", gotKw, kw)
	}
	// Type fidelity for the numeric tags (DeepEqual would accept only
	// identical types anyway; make the contract explicit).
	if _, ok := gotArgs[3].(int); !ok {
		t.Fatalf("int decoded as %T", gotArgs[3])
	}
	if _, ok := gotArgs[4].(int64); !ok {
		t.Fatalf("int64 decoded as %T", gotArgs[4])
	}
}

// TestPayloadDecodeRejectsCorruption: truncated and tag-corrupted payloads
// error out instead of fabricating arguments or over-allocating.
func TestPayloadDecodeRejectsCorruption(t *testing.T) {
	p, err := EncodeArgs([]any{1, "x", []string{"a", "b"}}, map[string]any{"k": 1})
	if err != nil {
		t.Fatal(err)
	}
	data := p.Bytes()
	for cut := 0; cut < len(data); cut++ {
		trunc := &Payload{data: data[:cut]}
		if _, _, err := trunc.DecodeArgs(); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	bad := append([]byte{}, data...)
	bad[1] = 0xff // absurd args count
	if _, _, err := (&Payload{data: bad}).DecodeArgs(); err == nil {
		t.Fatal("corrupt count decoded")
	}
}

// TestEncodeArgsDeterministicAcrossKwargOrder: the payload bytes (and so
// the payload-derived memo hash) canonicalize kwargs, matching the
// determinism ArgsHash guarantees.
func TestEncodeArgsDeterministicAcrossKwargOrder(t *testing.T) {
	kw1 := map[string]any{}
	kw2 := map[string]any{}
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		kw1[k] = k + "-v"
	}
	for i := len(keys) - 1; i >= 0; i-- {
		kw2[keys[i]] = keys[i] + "-v"
	}
	p1, err := EncodeArgs([]any{1, "x"}, kw1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := EncodeArgs([]any{1, "x"}, kw2)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1.Bytes()) != string(p2.Bytes()) {
		t.Fatal("payload bytes differ across kwarg insertion order")
	}
	if p1.ArgsHash() != p2.ArgsHash() {
		t.Fatalf("payload hash differs: %s %s", p1.ArgsHash(), p2.ArgsHash())
	}
	p3, err := EncodeArgs([]any{2, "x"}, kw1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ArgsHash() == p3.ArgsHash() {
		t.Fatal("different args hashed identically")
	}
}

// TestPayloadDecodeArgsIsDeepCopy: every decode of the cached bytes yields
// an isolated copy — mutations through one copy reach neither the original
// arguments nor subsequent copies (the deep-copy-from-bytes path the
// threadpool executor runs).
func TestPayloadDecodeArgsIsDeepCopy(t *testing.T) {
	orig := []any{[]string{"a", "b"}}
	kw := map[string]any{"list": []int{1, 2, 3}}
	p, err := EncodeArgs(orig, kw)
	if err != nil {
		t.Fatal(err)
	}
	cargs, ckw, err := p.DecodeArgs()
	if err != nil {
		t.Fatal(err)
	}
	cargs[0].([]string)[0] = "MUTATED"
	ckw["list"].([]int)[0] = 999
	if orig[0].([]string)[0] != "a" || kw["list"].([]int)[0] != 1 {
		t.Fatal("mutation leaked into caller state")
	}
	again, akw, err := p.DecodeArgs()
	if err != nil {
		t.Fatal(err)
	}
	if again[0].([]string)[0] != "a" || akw["list"].([]int)[0] != 1 {
		t.Fatal("mutation leaked into a later decode of the same payload")
	}
}

// TestWirePayloadZeroRedundancy: attaching a payload makes Wire() reuse the
// encoded bytes verbatim (no re-encode), and the payload survives a decode
// hop still attached — the property EXEX's rank-0 forwarding relies on.
func TestWirePayloadZeroRedundancy(t *testing.T) {
	p, err := EncodeArgs([]any{"x", 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := TaskMsg{ID: 5, App: "a", Priority: 2}
	m.AttachPayload(p)
	w, err := m.Wire()
	if err != nil {
		t.Fatal(err)
	}
	if &w.P[0] != &p.Bytes()[0] {
		t.Fatal("Wire() copied the payload instead of reusing its bytes")
	}
	got, err := w.Task()
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload() == nil {
		t.Fatal("payload not re-attached after wire decode")
	}
	if got.Args[0] != "x" || got.Args[1] != 7 || got.ID != 5 || got.Priority != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	w2, err := got.Wire()
	if err != nil {
		t.Fatal(err)
	}
	if &w2.P[0] != &w.P[0] {
		t.Fatal("onward hop re-encoded the argument payload")
	}
	if got.Payload().ArgsHash() != p.ArgsHash() {
		t.Fatal("payload hash changed across the wire")
	}
}

func TestRegisterIfAbsent(t *testing.T) {
	r := NewRegistry()
	calls := 0
	first := func([]any, map[string]any) (any, error) { calls++; return "first", nil }
	second := func([]any, map[string]any) (any, error) { return "second", nil }
	if err := r.RegisterIfAbsent("app", first); err != nil {
		t.Fatal(err)
	}
	// Second registration is a silent no-op; the first function wins.
	if err := r.RegisterIfAbsent("app", second); err != nil {
		t.Fatal(err)
	}
	e, ok := r.Lookup("app")
	if !ok {
		t.Fatal("entry missing")
	}
	if v, _ := e.Fn(nil, nil); v != "first" {
		t.Fatalf("fn = %v, want the first registration", v)
	}
	if err := r.RegisterIfAbsent("", first); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.RegisterIfAbsent("x", nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestRegisterIfAbsentConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.RegisterIfAbsent("shared", func([]any, map[string]any) (any, error) {
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if _, ok := r.Lookup("shared"); !ok {
		t.Fatal("entry missing after concurrent registration")
	}
}

package serialize

import (
	"math"
	"reflect"
	"testing"
)

// TestSnapshotArgsRefusesWhatItCannotShare: only the six immutable types the
// codec decodes to themselves are shared; every other argument, and any
// kwargs, leaves the caller to encode.
func TestSnapshotArgsRefusesWhatItCannotShare(t *testing.T) {
	// A registered user type: the codec carries it through its gob fallback.
	type point struct{ X, Y int }
	RegisterType(point{})
	// A named int: the codec would send it through gob, not as an int.
	type weekday int
	n := 7
	refused := map[string]struct {
		args   []any
		kwargs map[string]any
	}{
		"kwargs":           {[]any{1}, map[string]any{"k": 1}},
		"[]int":            {[]any{1, []int{2}}, nil},
		"[]any":            {[]any{[]any{1}}, nil},
		"[]byte":           {[]any{[]byte("b")}, nil},
		"map":              {[]any{map[string]any{"k": 1}}, nil},
		"pointer":          {[]any{&n}, nil},
		"registered type":  {[]any{point{1, 2}}, nil},
		"named int":        {[]any{weekday(3)}, nil},
		"int32":            {[]any{int32(3)}, nil},
		"last arg refused": {[]any{1, "s", 2.5, &n}, nil},
	}
	for name, c := range refused {
		if p, ok := SnapshotArgs(c.args, c.kwargs); ok || p != nil {
			t.Errorf("%s: snapshot taken, want refused", name)
		}
	}
	for _, args := range [][]any{
		nil, {}, {nil, true, false, -3, int64(1 << 40), 2.5, math.Inf(-1), "s", ""},
	} {
		p, ok := SnapshotArgs(args, map[string]any{})
		if !ok {
			t.Fatalf("%v with empty kwargs: refused", args)
		}
		p.Release()
	}
}

// TestSnapshotDecodesWhatTheCodecDecodes: a snapshot's DecodeArgs returns the
// values and dynamic types that encoding and decoding the same arguments
// returns, and a new slice on every call, so reassigning an element of one
// copy changes neither the next copy nor the caller's slice.
func TestSnapshotDecodesWhatTheCodecDecodes(t *testing.T) {
	args := []any{nil, true, -3, int64(300), 2.5, "s"}
	p, ok := SnapshotArgs(args, nil)
	if !ok {
		t.Fatal("refused plain values")
	}
	defer p.Release()
	enc, err := EncodeArgs(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	want, wantKw, err := enc.DecodeArgs()
	if err != nil {
		t.Fatal(err)
	}
	first, kw, err := p.DecodeArgs()
	if err != nil || kw != nil || wantKw != nil {
		t.Fatalf("kwargs = %v (codec %v), err = %v", kw, wantKw, err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("snapshot decodes %#v, codec %#v", first, want)
	}
	for i := range first {
		if reflect.TypeOf(first[i]) != reflect.TypeOf(want[i]) {
			t.Fatalf("arg %d: %T, codec %T", i, first[i], want[i])
		}
	}
	args[5] = "caller's"
	first[2] = "app's"
	second, _, _ := p.DecodeArgs()
	if &second[0] == &first[0] {
		t.Fatal("two DecodeArgs calls returned the same slice")
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("after the caller and an app reassigned their slices the snapshot decodes %#v, want %#v", second, want)
	}
	empty, _ := SnapshotArgs(nil, nil)
	defer empty.Release()
	if got, kw, err := empty.DecodeArgs(); got != nil || kw != nil || err != nil {
		t.Fatalf("no arguments decode to %#v, %v, %v; the codec gives nil slices", got, kw, err)
	}
}

// TestSnapshotReleaseClearsValues: the last Release empties the pooled
// payload's value slice, so a payload waiting in the pool keeps none of its
// last task's strings alive; and a snapshot refuses to pose as bytes.
func TestSnapshotReleaseClearsValues(t *testing.T) {
	p, ok := SnapshotArgs([]any{"a long string argument", 7, 2.5}, nil)
	if !ok {
		t.Fatal("refused plain values")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Bytes on a snapshot did not panic")
			}
		}()
		p.Bytes()
	}()
	p.Retain()
	p.Release()
	if len(p.vals) != 3 {
		t.Fatal("a release short of the last cleared the values")
	}
	p.Release()
	if p.snap || len(p.vals) != 0 {
		t.Fatalf("released payload: snap %v, %d values", p.snap, len(p.vals))
	}
	for i, v := range p.vals[:cap(p.vals)] {
		if v != nil {
			t.Fatalf("released payload still pins value %d: %#v", i, v)
		}
	}
}

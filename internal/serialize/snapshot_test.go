package serialize

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
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
// payload's value slice and forgets its bytes, so a payload waiting in the
// pool keeps none of its last task's strings alive and poses as neither
// view; and a snapshot whose bytes were built still copies its values.
func TestSnapshotReleaseClearsValues(t *testing.T) {
	p, ok := SnapshotArgs([]any{"a long string argument", 7, 2.5}, nil)
	if !ok {
		t.Fatal("refused plain values")
	}
	if len(p.Bytes()) == 0 {
		t.Fatal("a snapshot built no bytes")
	}
	if got, _, _ := p.DecodeArgs(); len(got) != 3 || unsafe.StringData(got[0].(string)) != unsafe.StringData(p.vals[0].(string)) {
		t.Fatal("a snapshot with built bytes decoded them instead of copying its values")
	}
	p.Retain()
	p.Release()
	if len(p.vals) != 3 {
		t.Fatal("a release short of the last cleared the values")
	}
	p.Release()
	if p.state != 0 || len(p.vals) != 0 || len(p.data) != 0 || p.sum != 0 {
		t.Fatalf("released payload: state %b, %d values, %d bytes, sum %x", p.state, len(p.vals), len(p.data), p.sum)
	}
	for i, v := range p.vals[:cap(p.vals)] {
		if v != nil {
			t.Fatalf("released payload still pins value %d: %#v", i, v)
		}
	}
}

// TestSnapshotBytesAreTheEncoding: a snapshot's lazily built bytes and its
// ArgsHash are EncodeArgs' bytes and hash, for each of the six types and for
// mixes, so memo keys persisted in checkpoints and payloads logged in the
// WAL match whichever way the payload was built. The golden digests pin the
// shared value.
func TestSnapshotBytesAreTheEncoding(t *testing.T) {
	cases := []struct {
		args   []any
		golden string
	}{
		{nil, "d0a397186727310c"},
		{[]any{}, ""},
		{[]any{nil}, ""},
		{[]any{true, false}, ""},
		{[]any{int(42)}, "5ea12fb6efd94a88"},
		{[]any{-1 << 62, 300}, ""},
		{[]any{int64(7), int64(-1 << 40)}, ""},
		{[]any{2.5, math.Inf(-1), math.NaN()}, ""},
		{[]any{"", "a long string argument past the inline buffer's 128 bytes, which makes the build spill into a heap buffer of its own: ........................................"}, ""},
		{[]any{"chr1", 3, 2.5}, "a766a3dadf2f1481"},
		{[]any{nil, true, -3, int64(300), 2.5, "s"}, ""},
	}
	for i, c := range cases {
		enc, err := EncodeArgs(c.args, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := SnapshotArgs(c.args, nil)
		if !ok {
			t.Fatalf("case %d: refused %#v", i, c.args)
		}
		if !bytes.Equal(snap.Bytes(), enc.Bytes()) {
			t.Errorf("case %d: built bytes %x, EncodeArgs %x", i, snap.Bytes(), enc.Bytes())
		}
		if snap.Len() != enc.Len() {
			t.Errorf("case %d: Len %d, EncodeArgs %d", i, snap.Len(), enc.Len())
		}
		if got, want := snap.ArgsHash(), enc.ArgsHash(); got != want {
			t.Errorf("case %d: ArgsHash %s, EncodeArgs %s", i, got, want)
		}
		if c.golden != "" && snap.ArgsHash() != c.golden {
			t.Errorf("case %d: ArgsHash %s, golden %s", i, snap.ArgsHash(), c.golden)
		}
		if got := Digest(snap.Bytes()); digestString(got) != snap.ArgsHash() {
			t.Errorf("case %d: ArgsHash %s is not the digest of the bytes (%016x)", i, snap.ArgsHash(), got)
		}
		enc.Release()
		snap.Release()
	}
}

// TestSnapshotArgsHashNeedsBytes: a fresh snapshot has no digest to report,
// and ArgsHash says so instead of returning the digest of no bytes.
func TestSnapshotArgsHashNeedsBytes(t *testing.T) {
	p, _ := SnapshotArgs([]any{300}, nil)
	defer p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("ArgsHash of a snapshot with no bytes returned a digest")
		}
	}()
	_ = p.ArgsHash()
}

// TestArgsHashCallersBuildBytesFirst keeps the rule ArgsHash's panic guards
// where serialize can see it: every non-test call of ArgsHash in either
// module (the benchmark is under the root) follows a Bytes call on the same
// receiver in the same function, unless that receiver was returned by
// EncodeArgs there, which never builds a snapshot. ArgsHash cannot build the
// bytes itself and stay inlinable.
func TestArgsHashCallersBuildBytesFirst(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	const root = "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			if name := d.Name(); name == "testdata" || (len(name) > 1 && name[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			bytesAt := map[string]token.Pos{}   // receiver → first Bytes call
			encodedAt := map[string]token.Pos{} // receiver → assigned from EncodeArgs
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					if call, ok := as.Rhs[0].(*ast.CallExpr); ok && calledName(call.Fun) == "EncodeArgs" {
						encodedAt[types.ExprString(as.Lhs[0])] = as.Pos()
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv := types.ExprString(sel.X)
				switch sel.Sel.Name {
				case "Bytes":
					if _, seen := bytesAt[recv]; !seen {
						bytesAt[recv] = call.Pos()
					}
				case "ArgsHash":
					checked++
					b, built := bytesAt[recv]
					e, encoded := encodedAt[recv]
					if !(built && b < call.Pos()) && !(encoded && e < call.Pos()) {
						t.Errorf("%s: %s.ArgsHash() in %s with no %s.Bytes() before it",
							fset.Position(call.Pos()), recv, fn.Name.Name, recv)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The memo key, the DFK's digest and the locality scenario's input
	// digest at least: a walk that found none checked nothing.
	if checked < 3 {
		t.Fatalf("found %d non-test ArgsHash calls, want at least 3", checked)
	}
}

// calledName is the function or method name a call expression names.
func calledName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// TestSnapshotConcurrentFirstBytes: four goroutines asking for a fresh
// snapshot's bytes at once all get the one encoding, built once into the
// payload's own buffer, and its digest. Run it under -race.
func TestSnapshotConcurrentFirstBytes(t *testing.T) {
	args := []any{"chr1", 3, 2.5, int64(1 << 40), nil, true}
	enc, err := EncodeArgs(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	for round := 0; round < 100; round++ {
		p, _ := SnapshotArgs(args, nil)
		const readers = 4
		got := make([][]byte, readers)
		sums := make([]string, readers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				got[r] = p.Bytes()
				sums[r] = p.ArgsHash()
			}()
		}
		start.Done()
		wg.Wait()
		for r := range readers {
			if !bytes.Equal(got[r], enc.Bytes()) || sums[r] != enc.ArgsHash() {
				t.Fatalf("round %d reader %d: %x %s, want %x %s", round, r, got[r], sums[r], enc.Bytes(), enc.ArgsHash())
			}
			if &got[r][0] != &got[0][0] {
				t.Fatalf("round %d: readers 0 and %d got two encodings", round, r)
			}
		}
		p.Release()
	}
}

// TestPayloadLayout: the state word shares refs' 8 bytes, so the header stays
// 40 B, inline follows it (a small encoding shares the header's cache line)
// and a Payload stays 192 B, its allocator size class.
func TestPayloadLayout(t *testing.T) {
	var p Payload
	if n := unsafe.Sizeof(p); n != 192 {
		t.Errorf("sizeof(Payload) = %d, want 192", n)
	}
	if off := unsafe.Offsetof(p.inline); off != 40 {
		t.Errorf("offsetof(Payload.inline) = %d, want 40", off)
	}
}

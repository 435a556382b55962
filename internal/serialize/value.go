package serialize

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
)

// The compact value codec behind encode-once payloads.
//
// gob is self-describing: every independent stream re-transmits type
// descriptors, and every fresh decoder re-parses and re-compiles them —
// a fixed ~10µs+ tax per payload that dwarfs the actual argument bytes for
// the small-argument tasks the paper's throughput experiments submit
// (§4.3.1 targets >1000 tasks/s). Since a payload is decoded exactly once,
// by the worker about to run the task, that tax cannot be amortized.
//
// So payloads encode the common argument shapes — nil, bool, integers,
// floats, strings, byte/str/int/float slices, []any, string-keyed maps —
// with a one-byte tag plus a fixed little encoding each, and fall back to a
// length-prefixed self-contained gob stream only for registered user types.
// The format is fully deterministic for the fast-path shapes (maps encode
// sorted), which is what lets the memoization hash be a plain digest of the
// payload bytes; gob-fallback values are deterministic for types whose
// descriptor ids are pinned (see primeGob/RegisterType).

// Value tags. Appending new tags is fine; reordering or removing them
// changes every payload hash and so invalidates existing checkpoints.
const (
	vNil byte = iota
	vFalse
	vTrue
	vInt      // zigzag varint, decodes to int
	vInt64    // zigzag varint, decodes to int64
	vFloat64  // 8-byte big-endian IEEE 754
	vString   // varint length + bytes
	vBytes    // varint length + raw bytes ([]byte)
	vStrings  // varint count + strings ([]string)
	vInts     // varint count + zigzag varints ([]int)
	vFloat64s // varint count + 8-byte values ([]float64)
	vList     // varint count + values ([]any)
	vMapSA    // varint count + sorted (string, value) pairs (map[string]any)
	vMapSS    // varint count + sorted (string, string) pairs (map[string]string)
	vGob      // varint length + self-contained gob stream of *any
)

// valueWriter appends the codec's primitives to a byte slice (kept on a
// pooled bytes.Buffer by the caller).
type valueWriter struct {
	b []byte
}

func (w *valueWriter) byte1(c byte)     { w.b = append(w.b, c) }
func (w *valueWriter) uvarint(u uint64) { w.b = binary.AppendUvarint(w.b, u) }
func (w *valueWriter) varint(i int64)   { w.b = binary.AppendVarint(w.b, i) }
func (w *valueWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *valueWriter) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// encodeValue appends one tagged value.
func (w *valueWriter) encodeValue(v any) error {
	switch t := v.(type) {
	case nil:
		w.byte1(vNil)
	case bool:
		if t {
			w.byte1(vTrue)
		} else {
			w.byte1(vFalse)
		}
	case int:
		w.byte1(vInt)
		w.varint(int64(t))
	case int64:
		w.byte1(vInt64)
		w.varint(t)
	case float64:
		w.byte1(vFloat64)
		w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(t))
	case string:
		w.byte1(vString)
		w.str(t)
	case []byte:
		w.byte1(vBytes)
		w.bytes(t)
	case []string:
		w.byte1(vStrings)
		w.uvarint(uint64(len(t)))
		for _, s := range t {
			w.str(s)
		}
	case []int:
		w.byte1(vInts)
		w.uvarint(uint64(len(t)))
		for _, i := range t {
			w.varint(int64(i))
		}
	case []float64:
		w.byte1(vFloat64s)
		w.uvarint(uint64(len(t)))
		for _, f := range t {
			w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(f))
		}
	case []any:
		w.byte1(vList)
		w.uvarint(uint64(len(t)))
		for _, e := range t {
			if err := w.encodeValue(e); err != nil {
				return err
			}
		}
	case map[string]any:
		w.byte1(vMapSA)
		return w.sortedMap(t)
	case map[string]string:
		w.byte1(vMapSS)
		w.uvarint(uint64(len(t)))
		for _, k := range sortedKeys(t) {
			w.str(k)
			w.str(t[k])
		}
	default:
		// Registered user type: a self-contained gob stream, the same
		// contract (and the same RegisterType requirement) the pure-gob
		// wire format had. gob needs a *any; taking the address of a copy
		// made here keeps the parameter itself off the heap for every other
		// branch.
		w.byte1(vGob)
		buf := getBuf()
		boxed := v
		err := gob.NewEncoder(buf).Encode(&boxed)
		if err != nil {
			putBuf(buf)
			return fmt.Errorf("serialize: encode %T: %w", v, err)
		}
		w.bytes(buf.Bytes())
		putBuf(buf)
	}
	return nil
}

// sortedMap appends a count and the (key, value) pairs in key order — the
// canonical form that makes a payload's bytes a function of its contents.
func (w *valueWriter) sortedMap(m map[string]any) error {
	w.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.str(k)
		if err := w.encodeValue(m[k]); err != nil {
			return fmt.Errorf("key %q: %w", k, err)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// valueReader consumes the codec's primitives from a byte slice. The first
// failure sticks in err and empties the input, so every later read returns a
// zero value at once: a decoder reads a whole shape and checks err once. Every
// count is bounded by the bytes that remain, so corrupt input can make a
// reader neither loop nor allocate out of proportion to its length.
type valueReader struct {
	b   []byte
	err error
}

var errShortPayload = fmt.Errorf("serialize: truncated payload")

func (r *valueReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// end reports the sticky error, or input left over after a complete decode.
func (r *valueReader) end() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("serialize: %d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *valueReader) byte1() byte {
	raw := r.take(1)
	if len(raw) == 0 {
		return 0
	}
	return raw[0]
}

func (r *valueReader) uvarint() uint64 {
	u, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errShortPayload)
		return 0
	}
	r.b = r.b[n:]
	return u
}

func (r *valueReader) varint() int64 {
	i, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errShortPayload)
		return 0
	}
	r.b = r.b[n:]
	return i
}

func (r *valueReader) take(n uint64) []byte {
	if uint64(len(r.b)) < n {
		r.fail(errShortPayload)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (r *valueReader) bytes() []byte { return r.take(r.uvarint()) }

func (r *valueReader) str() string { return string(r.bytes()) }

func (r *valueReader) u64() uint64 {
	raw := r.take(8)
	if len(raw) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(raw)
}

// count reads a collection length, bounding it by the entries the remaining
// bytes could hold at min bytes each.
func (r *valueReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail(errShortPayload)
		return 0
	}
	return int(n)
}

// decodeValue reads one tagged value. Every decode builds fresh containers,
// so the result is always a deep copy of what was encoded.
func (r *valueReader) decodeValue() any {
	switch tag := r.byte1(); tag {
	case vNil:
		return nil
	case vFalse:
		return false
	case vTrue:
		return true
	case vInt:
		return int(r.varint())
	case vInt64:
		return r.varint()
	case vFloat64:
		return math.Float64frombits(r.u64())
	case vString:
		return r.str()
	case vBytes:
		return append([]byte{}, r.bytes()...)
	case vStrings:
		out := make([]string, r.count(1))
		for i := range out {
			out[i] = r.str()
		}
		return out
	case vInts:
		out := make([]int, r.count(1))
		for i := range out {
			out[i] = int(r.varint())
		}
		return out
	case vFloat64s:
		out := make([]float64, r.count(8))
		for i := range out {
			out[i] = math.Float64frombits(r.u64())
		}
		return out
	case vList:
		out := make([]any, r.count(1))
		for i := range out {
			out[i] = r.decodeValue()
		}
		return out
	case vMapSA:
		n := r.count(2)
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := r.str()
			out[k] = r.decodeValue()
		}
		return out
	case vMapSS:
		n := r.count(2)
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := r.str()
			out[k] = r.str()
		}
		return out
	case vGob:
		raw := r.bytes()
		if !gobBounded(raw) {
			r.fail(errShortPayload)
		}
		var v any
		if r.err == nil {
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v); err != nil {
				r.fail(fmt.Errorf("serialize: decode gob value: %w", err))
			}
		}
		return v
	default:
		r.fail(fmt.Errorf("serialize: unknown value tag 0x%02x", tag))
		return nil
	}
}

// gobBounded reports whether every message of the gob stream in raw claims
// no more bytes than raw holds. gob trusts a message's length prefix enough to
// allocate up to 10 MiB for it before reading a byte, so an embedded value is
// checked first: corrupt input must not provoke an allocation out of
// proportion to its size. (A gob stream is a sequence of length-prefixed
// messages; a length is one byte below 0x80, or a negated byte count followed
// by that many big-endian bytes.)
func gobBounded(raw []byte) bool {
	for len(raw) > 0 {
		n, width := uint64(raw[0]), 1
		if raw[0] >= 0x80 {
			width += 256 - int(raw[0]) // the byte is the negated count
			if width > 9 || width > len(raw) {
				return false
			}
			n = 0
			for _, c := range raw[1:width] {
				n = n<<8 | uint64(c)
			}
		}
		if n > uint64(len(raw)-width) {
			return false
		}
		raw = raw[width+int(n):]
	}
	return true
}

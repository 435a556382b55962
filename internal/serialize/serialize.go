// Package serialize is the wire format and code-shipping layer, standing in
// for Parsl's use of pickle/dill (§3.2). Go functions cannot be serialized,
// so apps are registered by name in a Registry and only the name plus
// serialized arguments travel to workers — the same way a pickled Python
// function resolves against the module namespace on the executing side.
//
// Serializing arguments across the executor boundary also supplies Parsl's
// immutability guarantee: the executing side always operates on a deep
// copy, so mutations cannot leak back to the submitting program.
//
// # Encode-once data plane
//
// A task's resolved arguments are serialized at most once, into a Payload:
// at submit time (EncodeArgs), or, for plain values, on the first read of
// their bytes (see Value snapshots). That one byte slice then serves every
// downstream consumer:
//
//   - the memoization key hashes the payload bytes (Payload.ArgsHash) —
//     no per-argument encoders;
//   - executors decode the worker's defensive deep copy from the cached
//     bytes (Payload.DecodeArgs) — no fresh encode+decode round trip;
//   - remote executors ship the bytes verbatim inside a WireTask envelope —
//     brokers route on the envelope without ever touching the argument
//     bytes, and retries reuse the same payload.
//
// Payload bytes use a compact deterministic value codec (value.go): common
// argument shapes — nil, bool, ints, floats, strings, byte/str/int/float
// slices, []any, string-keyed maps — encode with one-byte tags; registered
// user types fall back to an embedded self-contained gob stream, the same
// RegisterType contract pickle's importable-classes rule maps to. The fast
// path exists because gob's self-describing streams carry a fixed
// descriptor-parsing cost per independent stream that cannot be amortized
// for a payload decoded exactly once, by one worker.
//
// # Wire format
//
// Everything that crosses a connection is a checksummed frame of one fixed,
// hand-written shape (stream.go): a task envelope is its routing fields plus
// the argument payload as an opaque byte column, a result envelope is the
// result value in the value codec plus two strings. There is no
// self-describing stream and no reflection on the wire path; gob survives
// only inside a payload or result value, for registered user types.
//
// Standalone frames (EncodeWire/DecodeWire, EncodeResult/DecodeResult, id
// lists) decode in isolation, which is what the LLEX relay (it fans a single
// client's frames out across workers) and the MPI interior of EXEX pools
// require. Point-to-point sessions (HTEX client ↔ interchange ↔ manager)
// carry batches on a StreamEncoder/StreamDecoder pair instead: the same
// envelopes, numbered within an epoch so that a receiver notices a lost,
// duplicated or undecodable frame and the sender can resync it. Both kinds
// are tagged, so mixed traffic on one connection stays decodable.
//
// # Value snapshots
//
// A payload has two views of its arguments: their values and their bytes.
// When every positional argument is nil, a bool, an int, an int64, a float64
// or a string and there are no kwargs, SnapshotArgs builds the same pooled,
// reference-counted Payload holding a copy of the values, and the DFK does
// so for every such task, whatever reads its payload later. Those six types
// are immutable in Go, and they are exactly what the codec decodes them to,
// so sharing the values is as good as a deep copy and re-boxes nothing:
// DecodeArgs returns a fresh []any of them, and an app that reassigns an
// element of its slice changes nothing the submitter or a retry sees. The
// bytes are built when something reads them: the first Bytes call (the WAL,
// a memo key, a digest, the wire, a retransmit) encodes the values once
// into the payload's own buffer, exactly as EncodeArgs would, and sets the
// digest ArgsHash reports. A task that stays in this process and whose
// payload nobody hashes, logs or frames is never encoded.
//
// Hash stability: payload digests (via the pinned value-codec byte format
// plus primed gob descriptor ids) are stable across processes and releases — golden-value tests enforce it — because
// checkpoint files persist memoization keys built from them.
package serialize

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Fn is the executable form of an app: positional args plus keyword args, one
// result value or an error. Apps must be pure functions of their inputs.
type Fn func(args []any, kwargs map[string]any) (any, error)

// Entry is a registered app.
type Entry struct {
	Name    string
	Fn      Fn
	Version string // bumping invalidates memoized results, like editing a body
}

// BodyHash returns the hash that memoization uses in its lookup key. It
// plays the role of Parsl's hash of the function body: Go cannot hash
// compiled code, so the (name, version) pair is hashed instead, and changing
// Version models editing the function.
func (e Entry) BodyHash() string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(e.Name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(e.Version))
	return digestString(h.Sum64())
}

// Registry maps app names to executable functions. Workers hold a registry
// mirroring the client's; a task referencing an unregistered name fails with
// a descriptive error (the analogue of an ImportError on a Parsl worker).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Entry)}
}

// defaultVersion is the app version implied when none is given; it feeds
// the memoization body hash, so every registration path must share it.
const defaultVersion = "v1"

// Register adds an app under name. Duplicate names are rejected so that a
// memoization key can never silently refer to two different functions.
func (r *Registry) Register(name string, fn Fn) error {
	return r.register(name, defaultVersion, fn, false)
}

// RegisterVersion adds an app with an explicit version string.
func (r *Registry) RegisterVersion(name, version string, fn Fn) error {
	return r.register(name, version, fn, false)
}

// RegisterIfAbsent registers name unless an entry already exists, in one
// critical section. Callers that would otherwise Lookup-then-Register (the
// DFK's lazily created internal apps, e.g. the stage-in transfer task) use
// this to stay atomic under concurrent submission.
func (r *Registry) RegisterIfAbsent(name string, fn Fn) error {
	return r.register(name, defaultVersion, fn, true)
}

// register validates and inserts under the lock; ifAbsent turns a
// duplicate into a no-op instead of an error.
func (r *Registry) register(name, version string, fn Fn, ifAbsent bool) error {
	if name == "" {
		return fmt.Errorf("serialize: empty app name")
	}
	if fn == nil {
		return fmt.Errorf("serialize: nil fn for app %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		if ifAbsent {
			return nil
		}
		return fmt.Errorf("serialize: app %q already registered", name)
	}
	r.entries[name] = Entry{Name: name, Fn: fn, Version: version}
	return nil
}

// Lookup returns the entry for name.
func (r *Registry) Lookup(name string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the sorted registered app names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TaskMsg is the in-memory form of a task crossing the submission boundary:
// app name plus fully resolved arguments (futures have been replaced by
// their values before encoding), as Args/Kwargs or as an attached payload.
// The DFK attaches the payload and leaves Args/Kwargs empty, except for an
// executor that makes its own futures; ArgsPayload and Wire read whichever
// the message has. Priority carries the per-call dispatch
// priority across the submission boundary so remote queues can honor it too;
// Tenant and Weight carry the fair-queuing identity so brokers past the
// client leg (the HTEX interchange) can keep tenant shares fair as well.
type TaskMsg struct {
	ID       int64
	App      string
	Args     []any
	Kwargs   map[string]any
	Priority int
	Tenant   string
	Weight   int

	// payload is the encode-once serialization of the arguments, attached by
	// the dispatch pipeline at launch; on the wire, WireTask carries its
	// bytes.
	payload *Payload
}

// AttachPayload caches the encode-once serialization of the message's
// arguments, letting every downstream consumer (wire framing, deep copies,
// hashing) reuse the bytes instead of re-encoding.
func (m *TaskMsg) AttachPayload(p *Payload) { m.payload = p }

// Payload returns the attached encode-once payload (nil when the message
// was built without one, e.g. direct executor submissions in tests).
func (m *TaskMsg) Payload() *Payload { return m.payload }

// ArgsPayload returns the attached payload, encoding the arguments now —
// and caching the result — if the message was built without one.
func (m *TaskMsg) ArgsPayload() (*Payload, error) {
	if m.payload == nil {
		p, err := EncodeArgs(m.Args, m.Kwargs)
		if err != nil {
			return nil, err
		}
		m.payload = p
	}
	return m.payload, nil
}

// ResultMsg carries a task result back from a worker. Err is a string because
// error values do not serialize portably; the empty string means success.
type ResultMsg struct {
	ID       int64
	Value    any
	Err      string
	WorkerID string
}

func init() {
	// Base argument types every deployment can rely on. Composite user
	// types are added via RegisterType.
	gob.Register([]any{})
	gob.Register(map[string]any{})
	gob.Register(map[string]string{})
	gob.Register([]string{})
	gob.Register([]int{})
	gob.Register([]float64{})
	gob.Register([]byte{})
	gob.Register(time0{})

	// Pin gob's wire-type ids for every base type, in a fixed order, before
	// any real encode can run. gob assigns descriptor ids from a
	// process-global counter at first encode, so without this the byte
	// stream for, say, []string would depend on which types the process
	// happened to serialize first — and the memoization hashes built from
	// those bytes would not be reproducible across runs. Priming here (and
	// in RegisterType for user types) is what makes Payload.ArgsHash
	// digests stable enough to pin with golden values and to persist in
	// checkpoint files.
	primeGob(
		false, true,
		int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), "",
		[]any{}, map[string]any{}, map[string]string{},
		[]string{}, []int{}, []float64{}, []byte{},
		time0{},
		WireTask{}, ResultMsg{},
	)
}

// primeGob encodes one value of each type to a throwaway stream so gob's
// global descriptor-id counter assigns their ids deterministically. The
// concrete values are encoded directly (not through an interface), which
// assigns descriptor ids without requiring registration.
func primeGob(vs ...any) {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range vs {
		_ = enc.Encode(v)
	}
}

// time0 exists only to reserve a concrete type in gob's registry from this
// package's init; it is never sent.
type time0 struct{}

// RegisterType makes a concrete argument/result type encodable, mirroring
// how pickle needs importable classes. Registration also pins the type's
// gob descriptor id (see init), so programs that register their types in a
// deterministic order — the normal sequential setup — get reproducible
// argument hashes for those types too.
func RegisterType(v any) {
	gob.Register(v)
	primeGob(v)
}

// bufPool recycles gob scratch buffers: the value codec's gob-fallback
// encodes borrow from here instead of growing a fresh bytes.Buffer.
// (Encode-once payloads do not: a Payload owns its bytes for the task's
// lifetime, so there is nothing to return to a pool.)
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) { bufPool.Put(b) }

// payloadVersion is the leading byte of every encode-once payload; bumping
// it invalidates all persisted memo keys, so only do that when the value
// codec's byte format actually changes.
const payloadVersion byte = 1

// Payload is a task's resolved arguments, held once for its whole life: the
// encode-once serialized form EncodeArgs produces with the compact value
// codec (see value.go: common argument shapes encode with one-byte tags,
// registered user types through an embedded gob fallback), or a value
// snapshot (SnapshotArgs) that builds those same bytes on its first Bytes
// call. Bytes and values are immutable once there and shared freely across
// the memo hash, defensive deep copies, the wire, and retries.
//
// Payloads are reference counted so their byte buffers can be pooled: the
// task record owns one reference from its construction until retirement, and
// every consumer that may outlive the record (a dispatch-lane submission,
// an executor's retransmit buffer) takes its own with Retain and drops it
// with Release. When the last reference drops, the buffer returns to a pool
// for the next payload. A forgotten Release degrades to garbage
// collection, never corruption.
type Payload struct {
	refs atomic.Int32
	// state says which views hold the arguments (viewVals, viewBytes) and
	// whether a first Bytes is building the encoding. Zero is a payload of
	// bytes whose digest nobody has computed yet (PayloadFromBytes). It sits
	// in refs' word, so the header stays 40 B. While the payload is shared it
	// is read and set through sync/atomic; its constructor and its last
	// Release, which own it alone, use plain stores, where an atomic.Uint32
	// would put two locked exchanges on every task.
	state uint32
	data  []byte
	sum   uint64

	// inline backs data for small argument lists, so a Payload fresh from the
	// pool encodes without a heap buffer. Encodes that outgrow it spill to a
	// heap buffer, which the pool then keeps for later occupants. It follows
	// the header directly, so a small encoding can share its cache line.
	inline [128]byte

	// vals holds a snapshot's arguments, and keeps its capacity across pool
	// occupants.
	vals []any
}

// The bits of Payload.state.
const (
	// viewVals: vals holds the arguments (SnapshotArgs).
	viewVals uint32 = 1 << iota
	// building: a first Bytes is encoding vals into data.
	building
	// viewBytes: data holds their canonical encoding and sum its digest.
	viewBytes
)

// payloadPool recycles Payload structs and (via their data capacity) the
// encode buffers of the million-task hot path.
var payloadPool = sync.Pool{New: func() any { return new(Payload) }}

// Retain takes an additional reference and returns p for chaining. Safe on
// nil, like Release: a message built without a payload has none to count.
func (p *Payload) Retain() *Payload {
	if p != nil {
		p.refs.Add(1)
	}
	return p
}

// Release drops a reference; the last one resets the Payload and returns its
// buffer to the pool. Safe on nil. Releasing more times than retained is an
// engine bug and panics (the buffer would already belong to someone else).
func (p *Payload) Release() {
	if p == nil {
		return
	}
	switch n := p.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("serialize: Payload over-released")
	}
	if p.state&viewVals != 0 {
		clear(p.vals) // a pooled snapshot pins none of its last occupant's values
		p.vals = p.vals[:0]
	}
	if p.state != 0 {
		p.state = 0
		p.sum = 0
	}
	p.data = p.data[:0]
	payloadPool.Put(p)
}

// EncodeArgs serializes resolved arguments exactly once into a Payload
// holding one reference. The buffer comes from the payload pool when a
// recycled one is available, because the Payload keeps it for the task's
// whole lifetime (hash, wire, deep copies, retries) — that buffer is the one
// serialization cost the task ever pays. The encoding is canonical — maps
// encode with sorted keys — so identical arguments always produce identical
// bytes, and the memoization hash can be a plain digest of them.
func EncodeArgs(args []any, kwargs map[string]any) (*Payload, error) {
	p := payloadPool.Get().(*Payload)
	if err := p.encode(args, kwargs); err != nil {
		payloadPool.Put(p)
		return nil, err
	}
	p.state = viewBytes
	p.refs.Store(1)
	return p, nil
}

// encode writes the canonical encoding of args and kwargs into p's buffer
// and its digest into sum. On an error it leaves data empty.
func (p *Payload) encode(args []any, kwargs map[string]any) error {
	if cap(p.data) == 0 {
		p.data = p.inline[:0]
	}
	w := valueWriter{b: p.data[:0]}
	w.byte1(payloadVersion)
	w.uvarint(uint64(len(args)))
	for i, a := range args {
		if err := w.encodeValue(a); err != nil {
			p.data = w.b[:0]
			return fmt.Errorf("serialize: encode arg %d: %w", i, err)
		}
	}
	if err := w.sortedMap(kwargs); err != nil {
		p.data = w.b[:0]
		return fmt.Errorf("serialize: encode kwargs: %w", err)
	}
	p.data = w.b
	p.sum = Digest(w.b)
	return nil
}

// SnapshotArgs builds a task's payload without encoding it (see the package
// comment): when every positional argument is nil, a bool, an int, an
// int64, a float64 or a string and kwargs is empty, it returns a Payload
// holding one reference and a copy of args, and true. Its bytes are built
// on the first Bytes call. Otherwise it returns nil and false, and the
// caller encodes.
func SnapshotArgs(args []any, kwargs map[string]any) (*Payload, bool) {
	if len(kwargs) != 0 {
		return nil, false
	}
	for _, a := range args {
		switch a.(type) {
		case nil, bool, int, int64, float64, string:
		default:
			return nil, false
		}
	}
	p := payloadPool.Get().(*Payload)
	p.vals = append(p.vals[:0], args...)
	p.state = viewVals
	p.refs.Store(1)
	return p, true
}

// PayloadFromBytes wraps already-encoded payload bytes — off the wire, or
// replayed from the durable dataflow log — holding one reference. The slice
// is retained; callers replaying from a shared buffer must pass a copy. The
// hash is computed on demand: worker-side consumers never ask for it.
func PayloadFromBytes(b []byte) *Payload {
	p := &Payload{data: b}
	p.refs.Store(1)
	return p
}

// Bytes exposes the encoded payload. Callers must treat it as read-only. A
// value snapshot builds its canonical encoding on the first call, once, into
// its own buffer, and keeps it beside the values: whoever reads first (the
// WAL, a memo key, a digest, the wire, a retransmit) pays the encode, and
// concurrent first callers all get the one encoding. Encoding the six types
// a snapshot holds cannot fail.
func (p *Payload) Bytes() []byte {
	if atomic.LoadUint32(&p.state)&(viewVals|viewBytes) == viewVals {
		p.build()
	}
	return p.data
}

// build encodes a snapshot's values into data. The caller that moves state
// from viewVals to building encodes; any other waits until it is done.
func (p *Payload) build() {
	if !atomic.CompareAndSwapUint32(&p.state, viewVals, viewVals|building) {
		for atomic.LoadUint32(&p.state)&viewBytes == 0 {
			runtime.Gosched()
		}
		return
	}
	_ = p.encode(p.vals, nil) // the six types SnapshotArgs admits always encode
	atomic.StoreUint32(&p.state, viewVals|viewBytes)
}

// Len reports the encoded size in bytes, building a snapshot's bytes.
func (p *Payload) Len() int { return len(p.Bytes()) }

// ArgsHash returns the FNV-64a digest of the payload bytes as 16 hex digits.
// Because the payload encoding is canonical
// (sorted kwargs), identical arguments always produce identical digests —
// this is the memoization hash of the encode-once pipeline, and it costs no
// additional encoding. A value snapshot's digest is computed when its bytes
// are built, so a caller hashing a payload that may be a snapshot calls Bytes
// first (memo.KeyFromPayload does; TestArgsHashCallersBuildBytesFirst holds
// every caller to it); ArgsHash on a snapshot whose bytes are not built
// panics rather than return the digest of no bytes. (ArgsHash does
// not build them itself, to stay within the inlining budget: inlined into the
// memo key's concatenation, its digest string needs no allocation of its
// own.)
func (p *Payload) ArgsHash() string {
	sum := p.sum
	switch atomic.LoadUint32(&p.state) {
	case 0:
		sum = Digest(p.data)
	case viewVals, viewVals | building:
		panic("serialize: ArgsHash of a value snapshot before Bytes")
	}
	return digestString(sum)
}

// Digest returns the content digest of encoded payload bytes as a number:
// allocation-free FNV-64a, the value Payload.ArgsHash reports, as text, for
// the same bytes. It lets the interchange derive a task's input digest from
// the WireTask.P column alone, with no wire-format change and no argument
// decode: the digest it records for a returned task matches the one the DFK
// computed from the attached payload, because both hash the identical
// canonical encoding.
func Digest(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// AppendDigest appends sum in Payload.ArgsHash's text form: 16 lower-case hex
// digits, what fmt's %016x prints, without fmt's boxing and scratch
// allocations.
func AppendDigest(dst []byte, sum uint64) []byte {
	return append(dst, digestString(sum)...)
}

// digestString is the one hex encoder of a digest. It is small enough to
// inline into ArgsHash, so a caller concatenating the digest (the memo key)
// allocates no string of its own for it, and into AppendDigest, where the
// string does not escape and needs no allocation either.
func digestString(sum uint64) string {
	var b [16]byte
	for i := range b {
		b[i] = "0123456789abcdef"[sum>>60]
		sum <<= 4
	}
	return string(b[:])
}

// DecodeArgs decodes a fresh deep copy of the arguments from the cached
// bytes — the defensive copy handed to executors. Every call builds new
// containers, so repeated decodes (retries, replays) stay isolated from
// one another and from the submitting program. A value snapshot's copy is
// one new slice of its immutable values, whether or not its bytes were
// built: what decoding their encoding would return, without re-boxing a
// value.
func (p *Payload) DecodeArgs() ([]any, map[string]any, error) {
	if atomic.LoadUint32(&p.state)&viewVals != 0 {
		if len(p.vals) == 0 {
			return nil, nil, nil // the codec's decode of no arguments
		}
		return append(make([]any, 0, len(p.vals)), p.vals...), nil, nil
	}
	return DecodeArgsBytes(p.data)
}

// DecodeArgsBytes decodes arguments straight from an encoded payload's
// bytes without constructing a Payload — the zero-copy manager leg: a
// worker hands the wire frame's P bytes directly to the decoder, and only
// the decoded values (fresh containers by construction) survive the call.
// The input is read, never retained.
func DecodeArgsBytes(b []byte) ([]any, map[string]any, error) {
	r := valueReader{b: b}
	if ver := r.byte1(); r.err == nil && ver != payloadVersion {
		return nil, nil, fmt.Errorf("serialize: payload version %d, want %d", ver, payloadVersion)
	}
	var args []any
	if n := r.count(1); n > 0 {
		args = make([]any, n)
		for i := range args {
			args[i] = r.decodeValue()
		}
	}
	var kwargs map[string]any
	if n := r.count(2); n > 0 {
		kwargs = make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := r.str()
			kwargs[k] = r.decodeValue()
		}
	}
	if err := r.end(); err != nil {
		return nil, nil, fmt.Errorf("serialize: decode args: %w", err)
	}
	return args, kwargs, nil
}

// WireTask is the on-the-wire form of a task: the routing envelope (id, app,
// priority, tenant) plus the encode-once argument payload as raw bytes.
// Brokers (the HTEX interchange) queue, prioritize, fair-share, cancel, and
// re-frame WireTasks without ever decoding — or re-encoding — the argument
// bytes; only the worker that executes the task pays the argument decode.
type WireTask struct {
	ID       int64
	App      string
	Priority int
	Tenant   string
	Weight   int
	P        []byte
}

// Wire converts the message to its wire form, reusing the attached payload
// (or encoding one now, exactly once, if absent).
func (m *TaskMsg) Wire() (WireTask, error) {
	p, err := m.ArgsPayload()
	if err != nil {
		return WireTask{}, fmt.Errorf("serialize: encode task %d: %w", m.ID, err)
	}
	return WireTask{
		ID: m.ID, App: m.App, Priority: m.Priority,
		Tenant: m.Tenant, Weight: m.Weight, P: p.Bytes(),
	}, nil
}

// Task decodes the argument payload and rebuilds the executable message.
// The payload stays attached, so a hop that re-serializes (EXEX rank 0
// forwarding over MPI) reuses the bytes.
func (w WireTask) Task() (TaskMsg, error) {
	p := PayloadFromBytes(w.P)
	args, kwargs, err := p.DecodeArgs()
	if err != nil {
		return TaskMsg{}, fmt.Errorf("serialize: decode task %d: %w", w.ID, err)
	}
	return TaskMsg{
		ID: w.ID, App: w.App, Priority: w.Priority,
		Tenant: w.Tenant, Weight: w.Weight,
		Args: args, Kwargs: kwargs, payload: p,
	}, nil
}

// EncodeWire frames w as one standalone checksummed message; the argument
// payload inside passes through as an opaque byte column.
func EncodeWire(w WireTask) []byte {
	size := frameHeaderLen + 4*binary.MaxVarintLen64 + len(w.App) + len(w.Tenant) + len(w.P)
	fw := beginFrame(make([]byte, 0, size), frameOneTask, 0)
	fw.task(&w)
	return sealFrame(fw.b)
}

// DecodeWire decodes a standalone task frame without touching the argument
// payload — what brokers use to route on the envelope alone. P aliases b.
func DecodeWire(b []byte) (WireTask, error) {
	_, r := openFrame(b, frameOneTask)
	w := r.task(nil, true)
	if err := r.end(); err != nil {
		return WireTask{}, fmt.Errorf("serialize: decode task: %w", err)
	}
	return w, nil
}

// EncodeTask serializes a TaskMsg as one standalone message (see the package
// comment for when streams apply). An attached payload is reused verbatim.
func EncodeTask(m TaskMsg) ([]byte, error) {
	w, err := m.Wire()
	if err != nil {
		return nil, err
	}
	return EncodeWire(w), nil
}

// DecodeTask deserializes a standalone TaskMsg, decoding the argument payload
// and leaving it attached for onward hops.
func DecodeTask(b []byte) (TaskMsg, error) {
	w, err := DecodeWire(b)
	if err != nil {
		return TaskMsg{}, err
	}
	return w.Task()
}

// EncodeResult frames m as one standalone checksummed message. It cannot
// fail: a Value that does not encode travels as the task's error result.
func EncodeResult(m ResultMsg) []byte {
	size := frameHeaderLen + 4*binary.MaxVarintLen64 + len(m.Err) + len(m.WorkerID)
	fw := beginFrame(make([]byte, 0, size), frameOneResult, 0)
	fw.varint(m.ID)
	fw.result(&m)
	return sealFrame(fw.b)
}

// DecodeResult deserializes a standalone ResultMsg.
func DecodeResult(b []byte) (ResultMsg, error) {
	_, r := openFrame(b, frameOneResult)
	m := ResultMsg{ID: r.varint()}
	r.result(&m, nil)
	if err := r.end(); err != nil {
		return ResultMsg{}, fmt.Errorf("serialize: decode result: %w", err)
	}
	return m, nil
}

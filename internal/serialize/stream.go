package serialize

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Frame tags. Every framed message starts with a 9-byte header: one tag
// byte, a big-endian uint32 stream epoch, and a CRC-32C of tag, epoch and
// body. The body is a hand-written encoding of one fixed message shape on
// value.go's primitives:
//
//	tasks    uvarint seq | uvarint n | n × (varint ID, str App, varint Priority,
//	                                        str Tenant, varint Weight, bytes P)
//	results  uvarint seq | uvarint n | n × varint ID | n × (value Value, str Err, str WorkerID)
//	ids      uvarint n | n × varint ID
//	one task     the task envelope alone
//	one result   varint ID | (value Value, str Err, str WorkerID)
//
// A result batch keeps its ids in a column ahead of the envelopes — the shape
// of an id list — so a broker can read which slots a batch releases and relay
// everything after the sequence number as opaque bytes
// (DecodeResultIDs/RelayResults), the way argument payloads already cross it.
//
// The checksum is verified before anything is parsed: a frame corrupted in
// transit fails loudly and attributably instead of decoding into a wrong task
// argument or a result whose mangled id debits the wrong bookkeeping entry,
// and the NACK resync protocol (internal/executor/htex) repairs the stream.
//
// The sequence number exists because these frames, unlike the gob stream they
// replaced, decode in isolation — and stream repair relies on a receiver that
// missed a frame *not* being able to follow the rest of the epoch: a frame
// whose header was mangled NACKs with an epoch nobody matches, and it is the
// next frame failing that gets the stream repaired. So the one piece of stream
// state is a counter. The epoch identifies the sender's encoder incarnation; a
// receiver joins an epoch only at its frame 0; a frame ahead of the expected
// number fails, and since a failed frame never advances the expectation and
// the sender never reissues a number, so does every later frame of that epoch,
// until the sender resets; a frame behind is a duplicate and is ignored.
const (
	frameTasks     byte = 0x03 // stream frame: batch of WireTask
	frameResults   byte = 0x04 // stream frame: batch of ResultMsg
	frameIDs       byte = 0x05 // standalone id list
	frameOneTask   byte = 0x06 // standalone WireTask (EncodeWire)
	frameOneResult byte = 0x07 // standalone ResultMsg (EncodeResult)
)

const frameHeaderLen = 9

// aliasLimit is the largest frame whose bytes decoded WireTask.P columns may
// alias. Past it each payload is copied out: one straggler held in a broker's
// outstanding set must not pin a large batch it does not own.
const aliasLimit = 64 << 10

// Smallest possible encodings of one batch entry; they bound a frame's claimed
// count by the bytes that remain, so corrupt input cannot provoke a giant
// allocation.
const (
	minTaskBytes   = 6
	minResultBytes = 4
)

// crcTable is CRC-32C (Castagnoli) — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameChecksum digests a frame's tag, epoch, and body (everything except
// the checksum field itself), so corruption anywhere in the frame — body
// bytes, the epoch, even the tag — is detected rather than misinterpreted.
func frameChecksum(frame []byte) uint32 {
	crc := crc32.Update(0, crcTable, frame[:5])
	return crc32.Update(crc, crcTable, frame[frameHeaderLen:])
}

// beginFrame starts a frame in buf's storage: the header with the checksum
// still zero. sealFrame fills the checksum in once the body is appended.
func beginFrame(buf []byte, tag byte, epoch uint32) valueWriter {
	b := append(buf[:0], tag, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[1:5], epoch)
	return valueWriter{b: b}
}

func sealFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame[5:frameHeaderLen], frameChecksum(frame))
	return frame
}

// openFrame verifies a received frame's length, checksum and tag and returns
// its epoch and a reader over its body — a failed reader if the frame is bad.
func openFrame(frame []byte, want byte) (epoch uint32, r valueReader) {
	switch {
	case len(frame) < frameHeaderLen:
		r.fail(fmt.Errorf("serialize: frame of %d bytes is shorter than the header", len(frame)))
	case binary.BigEndian.Uint32(frame[5:frameHeaderLen]) != frameChecksum(frame):
		r.fail(fmt.Errorf("serialize: frame checksum mismatch (%d bytes)", len(frame)))
	case frame[0] != want:
		r.fail(fmt.Errorf("serialize: frame tag 0x%02x where 0x%02x was expected", frame[0], want))
	default:
		epoch, r.b = binary.BigEndian.Uint32(frame[1:5]), frame[frameHeaderLen:]
	}
	return epoch, r
}

// task appends one task envelope; the argument payload passes through as an
// opaque byte column.
func (w *valueWriter) task(t *WireTask) {
	w.varint(t.ID)
	w.str(t.App)
	w.varint(int64(t.Priority))
	w.str(t.Tenant)
	w.varint(int64(t.Weight))
	w.bytes(t.P)
}

// results appends a result batch: count, id column, envelopes.
func (w *valueWriter) results(batch []ResultMsg) {
	w.uvarint(uint64(len(batch)))
	for i := range batch {
		w.varint(batch[i].ID)
	}
	for i := range batch {
		w.result(&batch[i])
	}
}

// result appends one result envelope (everything but the id). A Value that
// does not encode (an unregistered user type) costs only its own task: the
// envelope is rewritten as that task's error result, and the rest of its
// batch is unaffected.
func (w *valueWriter) result(r *ResultMsg) {
	mark := len(w.b)
	if err := w.encodeValue(r.Value); err != nil {
		w.b = append(w.b[:mark], vNil)
		w.str(fmt.Sprintf("result of task %d is not serializable: %v", r.ID, err))
	} else {
		w.str(r.Err)
	}
	w.str(r.WorkerID)
}

// interner deduplicates the few distinct App, Tenant and WorkerID strings a
// connection ever carries, so decoding them allocates once per distinct value
// instead of once per task. A nil interner just converts.
type interner map[string]string

// maxInterned bounds the table; past it new values are converted, not kept.
const maxInterned = 1024

func (in interner) str(r *valueReader) string {
	raw := r.bytes()
	if s, ok := in[string(raw)]; ok || len(raw) == 0 {
		return s
	}
	s := string(raw)
	if in != nil && len(in) < maxInterned {
		in[s] = s
	}
	return s
}

// tasks decodes a task batch into dst's storage.
func (r *valueReader) tasks(dst []WireTask, in interner, alias bool) []WireTask {
	dst = resize(dst, r.count(minTaskBytes))
	for i := range dst {
		dst[i] = r.task(in, alias)
	}
	return dst
}

// task decodes one task envelope. With alias set P is a capacity-capped
// sub-slice of the input; otherwise it is a copy.
func (r *valueReader) task(in interner, alias bool) WireTask {
	t := WireTask{ID: r.varint(), App: in.str(r), Priority: int(r.varint()), Tenant: in.str(r), Weight: int(r.varint())}
	if p := r.bytes(); len(p) > 0 && alias {
		t.P = p[:len(p):len(p)]
	} else if len(p) > 0 {
		t.P = append([]byte(nil), p...)
	}
	return t
}

// results decodes a result batch into dst's storage.
func (r *valueReader) results(dst []ResultMsg, in interner) []ResultMsg {
	dst = resize(dst, r.count(minResultBytes))
	for i := range dst {
		dst[i].ID = r.varint()
	}
	for i := range dst {
		r.result(&dst[i], in)
	}
	return dst
}

// result decodes one result envelope (everything but the id) into m.
func (r *valueReader) result(m *ResultMsg, in interner) {
	m.Value, m.Err, m.WorkerID = r.decodeValue(), r.str(), in.str(r)
}

// idColumn decodes n ids into dst's storage.
func (r *valueReader) idColumn(dst []int64, n int) []int64 {
	dst = resize(dst, n)
	for i := range dst {
		dst[i] = r.varint()
	}
	return dst
}

// resize returns s with length n, reusing its storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// epochSeq hands out globally unique stream epochs so no sender incarnation
// can ever be mistaken for its predecessor.
var epochSeq atomic.Uint32

// StreamEncoder is the sending half of a per-connection stream: it numbers
// and frames task and result batches in one reused buffer, so a steady-state
// frame costs no allocation.
//
// Every encode holds the encoder lock across both the encode and the send:
// the peer's StreamDecoder checks frame numbers, so frames must reach the
// transport in encode order even when multiple goroutines submit
// concurrently. The frame passed to send is valid only during the call.
type StreamEncoder struct {
	mu    sync.Mutex
	buf   []byte
	epoch uint32
	seq   uint64 // number of the next frame
}

// NewStreamEncoder starts a fresh stream with a unique epoch.
func NewStreamEncoder() *StreamEncoder {
	e := &StreamEncoder{}
	e.resetLocked()
	return e
}

// resetLocked abandons the current stream and starts a new one. Callers must
// hold e.mu (or own e exclusively, as in NewStreamEncoder).
func (e *StreamEncoder) resetLocked() {
	e.epoch = epochSeq.Add(1)
	e.seq = 0
}

// Epoch exposes the current stream incarnation (tests, diagnostics).
func (e *StreamEncoder) Epoch() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Reset abandons the current stream; the next frame is frame 0 of a new
// epoch, which any decoder accepts. Call after a transport-level reconnect or
// a NACK so the peer's decoder resyncs.
func (e *StreamEncoder) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resetLocked()
}

// begin starts the next stream frame. Callers hold e.mu.
func (e *StreamEncoder) begin(tag byte) valueWriter {
	w := beginFrame(e.buf, tag, e.epoch)
	w.uvarint(e.seq)
	return w
}

// ship seals the frame and hands it to send. The frame number is consumed
// here and nowhere else: a value refused before this point must not open a
// gap in the sequence. A send error resets the stream — the frame never
// reached the peer, so the next one must be joinable on its own.
func (e *StreamEncoder) ship(w valueWriter, send func(frame []byte) error) error {
	e.buf = w.b
	e.seq++
	if err := send(sealFrame(w.b)); err != nil {
		e.resetLocked()
		return err
	}
	return nil
}

// EncodeTasks frames batch as the next frame of the stream and passes it to
// send under the encoder lock.
func (e *StreamEncoder) EncodeTasks(batch []WireTask, send func(frame []byte) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.begin(frameTasks)
	w.uvarint(uint64(len(batch)))
	for i := range batch {
		w.task(&batch[i])
	}
	return e.ship(w, send)
}

// EncodeResults frames batch as the next frame of the stream and passes it to
// send under the encoder lock. It cannot be refused: a Value that does not
// encode travels as its task's error result.
func (e *StreamEncoder) EncodeResults(batch []ResultMsg, send func(frame []byte) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.begin(frameResults)
	w.results(batch)
	return e.ship(w, send)
}

// RelayResults frames a result batch received with DecodeResultIDs as the
// next frame of this stream without decoding it.
func (e *StreamEncoder) RelayResults(batch []byte, send func(frame []byte) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.begin(frameResults)
	w.b = append(w.b, batch...)
	return e.ship(w, send)
}

// EncodeFrame dispatches on v's type: []WireTask and []ResultMsg go to the
// typed entry points above (which callers on a hot path use directly — passing
// a slice as any allocates), []int64 is sent as a standalone id-list frame.
// Anything else is an error and leaves the stream untouched.
func (e *StreamEncoder) EncodeFrame(v any, send func(frame []byte) error) error {
	switch t := v.(type) {
	case []WireTask:
		return e.EncodeTasks(t, send)
	case []ResultMsg:
		return e.EncodeResults(t, send)
	case []int64:
		return send(EncodeIDs(t))
	default:
		// Naming v's type (here and in DecodeFrame) would make every
		// caller's v escape: one allocation per frame to word an error no
		// shipped caller can get.
		return errors.New("serialize: stream encode: frame is not a []WireTask, []ResultMsg or []int64")
	}
}

// EncodeIDs frames a wire-id list (CANCEL, LOST) as a standalone checksummed
// frame: tiny and infrequent, so stream state would buy nothing, but a
// bit-flipped id that decoded "successfully" would cancel or fail the wrong
// task, so it gets the same integrity check as task and result batches.
func EncodeIDs(ids []int64) []byte {
	w := beginFrame(make([]byte, 0, frameHeaderLen+binary.MaxVarintLen64*(len(ids)+1)), frameIDs, 0)
	w.uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.varint(id)
	}
	return sealFrame(w.b)
}

// DecodeIDs decodes a frame produced by EncodeIDs.
func DecodeIDs(frame []byte) ([]int64, error) {
	_, r := openFrame(frame, frameIDs)
	ids := r.idColumn(nil, r.count(1))
	if err := r.end(); err != nil {
		return nil, fmt.Errorf("serialize: id list: %w", err)
	}
	return ids, nil
}

// StreamDecoder is the receiving half of a per-connection stream: it
// verifies frames, in arrival order, against the sender's numbering (see the
// frame tags above for the rule). Standalone id-list frames decode at any
// point without touching the stream's state. Not safe for concurrent use;
// receivers own one decoder per peer on their single receive goroutine.
type StreamDecoder struct {
	epoch  uint32
	next   uint64 // number of the frame expected next in epoch
	intern interner
}

// NewStreamDecoder returns a decoder with no stream state; frame 0 of any
// epoch establishes it.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{intern: make(interner)} }

// PeekFrameEpoch reads a frame's stream epoch without decoding it. ok is
// false for standalone and malformed frames, which carry no stream identity.
// Epochs are globally unique per encoder incarnation, so observing a new
// epoch on a connection is an in-band signal that the peer started a new
// session — receivers can key their own reply-stream resets off it instead
// of trusting out-of-band connection events.
func PeekFrameEpoch(frame []byte) (epoch uint32, ok bool) {
	if len(frame) < frameHeaderLen || (frame[0] != frameTasks && frame[0] != frameResults) {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[1:5]), true
}

// emptyBatch is the body a duplicate frame is read as: a count of zero.
var emptyBatch = []byte{0}

// admit opens a stream frame and applies the sequence rule. fresh reports the
// frame the decoder expected next, which the caller consumes with d.next++
// once it has parsed; the other frames admitted without error are duplicates,
// and read as an empty batch.
func (d *StreamDecoder) admit(frame []byte, want byte) (r valueReader, fresh bool) {
	epoch, r := openFrame(frame, want)
	seq := r.uvarint()
	switch {
	case r.err != nil:
	case epoch != d.epoch && seq != 0:
		r.fail(fmt.Errorf("serialize: frame %d of epoch %d: a stream is joined only at its frame 0", seq, epoch))
	case epoch != d.epoch:
		d.epoch, d.next = epoch, 0
		fresh = true
	case seq > d.next:
		r.fail(fmt.Errorf("serialize: frame %d of epoch %d arrived where frame %d was expected", seq, epoch, d.next))
	case seq < d.next:
		r.b = emptyBatch
	default:
		fresh = true
	}
	return r, fresh
}

// DecodeFrame decodes one received frame into v, a *[]WireTask, *[]ResultMsg
// or *[]int64 matching the frame's kind. The batch is built in the
// destination slice's storage, so a receiver that keeps one destination per
// connection decodes without allocating a batch per frame (and clears it once
// the entries are handed on, so as not to pin them). A duplicate stream frame
// decodes to an empty batch; on an error the destination's contents are
// unspecified.
//
// Decoded WireTask.P columns alias frame when it is at most 64 KiB (and are
// copies past that), so the caller must own frame and leave it unmodified for
// as long as the tasks live — which a frame fresh off the transport is.
func (d *StreamDecoder) DecodeFrame(frame []byte, v any) error {
	var r valueReader
	var fresh bool
	switch dst := v.(type) {
	case *[]WireTask:
		r, fresh = d.admit(frame, frameTasks)
		*dst = r.tasks(*dst, d.intern, len(frame) <= aliasLimit)
	case *[]ResultMsg:
		r, fresh = d.admit(frame, frameResults)
		*dst = r.results(*dst, d.intern)
	case *[]int64:
		ids, err := DecodeIDs(frame)
		*dst = ids
		return err
	default:
		return errors.New("serialize: stream decode: destination is not a *[]WireTask, *[]ResultMsg or *[]int64")
	}
	if err := r.end(); err != nil {
		return fmt.Errorf("serialize: stream decode: %w", err)
	}
	if fresh {
		d.next++
	}
	return nil
}

// DecodeResultIDs is a broker's view of a result frame: it verifies and
// numbers the frame like DecodeFrame but reads only the id column, into ids'
// storage, and returns the batch's encoding — aliasing frame — for
// StreamEncoder.RelayResults to forward. The broker learns which slots the
// batch releases without decoding, or re-encoding, a single result value. A
// duplicate frame yields no ids and a nil batch.
func (d *StreamDecoder) DecodeResultIDs(frame []byte, ids *[]int64) (batch []byte, err error) {
	r, fresh := d.admit(frame, frameResults)
	batch = r.b
	*ids = r.idColumn(*ids, r.count(minResultBytes))
	if r.err != nil {
		return nil, fmt.Errorf("serialize: stream decode: %w", r.err)
	}
	if !fresh {
		return nil, nil
	}
	d.next++
	return batch, nil
}

// Record framing and replay for the durable dataflow log.
//
// Every record is framed as
//
//	[4B big-endian body length][4B big-endian CRC-32C of body][body]
//
// and the body is one type byte followed by the record's fields in a
// hand-rolled varint encoding (no reflection, no per-record allocations on
// the append path). CRC-32C (Castagnoli) matches the wire-frame checksum in
// internal/serialize: hardware-accelerated, and any single flipped byte in a
// record fails verification instead of replaying into a wrong frontier.
//
// Torn-tail policy: a tear can be followed only by a partial frame or by
// nothing. So a truncated or checksum-corrupt record at the end of the LAST
// segment ends replay cleanly — it is the partial final write of a crashed
// process, counted in Frontier.Torn and discarded, never an error. A bad
// record followed by one that checks out is damage, not a tear, and replay
// fails loudly, as it does for any damage in an earlier segment (everything
// after it is unreachable, because framing is lost). A length field damaged
// to reach past the end of the segment is indistinguishable from a tear.
// The memo checkpoint is written in the same frames (AppendFrame) and read
// under the same rule (WalkFrames), as a file of one segment.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Record types.
const (
	recSubmit   byte = 1 // task admitted to dispatch: identity + payload bytes
	recLaunch   byte = 2 // first executor submission of a task
	recRetry    byte = 3 // a further attempt consumed launch budget
	recTerminal byte = 4 // task concluded: outcome + result value
	recSnapshot byte = 5 // compaction: full frontier, folds terminal history
)

// Outcome is how a task concluded.
type Outcome byte

// Outcomes recorded by terminal records.
const (
	OutcomeDone     Outcome = 1
	OutcomeFailed   Outcome = 2
	OutcomeMemoized Outcome = 3
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeDone:
		return "done"
	case OutcomeFailed:
		return "failed"
	case OutcomeMemoized:
		return "memoized"
	}
	return fmt.Sprintf("Outcome(%d)", byte(o))
}

// TaskInfo is everything a submit record persists about a task — enough to
// re-admit it through the normal dispatch pipeline after a crash.
type TaskInfo struct {
	Key        int64  // durable task key, assigned by the log
	App        string // registered app name
	MemoKey    string // memoization key ("" when memoization is off)
	Tenant     string // fair-queuing tenant id
	Priority   int
	Weight     int
	MaxRetries int
	Launches   int    // replay-computed: launch + retry records seen
	Payload    []byte // encode-once serialized arguments
}

// Terminal is one concluded task as replay sees it.
type Terminal struct {
	Outcome Outcome
	// Value is the result as the memo checkpoint stores one (a one-element
	// serialize.EncodeArgs list); empty if the task failed or the codec
	// refused its result.
	Value []byte
	// Info is the task's submit info when its submit record is still in the
	// log; nil once compaction folded the task's history away.
	Info *TaskInfo
}

// Frontier is the replayed state of a log: what a restarted DFK recovers to.
type Frontier struct {
	NextKey int64 // next unassigned durable task key
	// Live holds tasks with a submit record and no terminal record — the
	// in-flight and pending set at the crash.
	Live map[int64]*TaskInfo
	// Terminals holds tasks that concluded, for terminal records still in
	// the log (not yet folded by compaction).
	Terminals map[int64]Terminal
	// Folded counts terminal tasks compacted out of the log; their futures
	// settled in an earlier lifetime.
	Folded int64
	// Records counts records replayed (snapshots included).
	Records int64
	// Torn counts partial trailing records discarded from the last segment.
	Torn int
}

// TerminalTotal is the number of tasks known concluded: replayable terminal
// records plus history folded into snapshots.
func (f *Frontier) TerminalTotal() int64 { return int64(len(f.Terminals)) + f.Folded }

// crcTable is CRC-32C (Castagnoli), matching internal/serialize's framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the per-record overhead: 4B length + 4B CRC.
const frameHeaderLen = 8

// openFrame reserves a frame header on dst for a body appended after it;
// sealFrame(b, start) fills in the header at start once the body is
// complete, so a record is framed in place with no copy of its body.
func openFrame(dst []byte) []byte {
	var hdr [frameHeaderLen]byte
	return append(dst, hdr[:]...)
}

func sealFrame(b []byte, start int) error {
	body := b[start+frameHeaderLen:]
	if uint64(len(body)) > math.MaxUint32 {
		return fmt.Errorf("wal: a %d-byte record body does not fit a frame", len(body))
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(body, crcTable))
	return nil
}

// AppendFrame appends body to dst as one frame, for another file written in
// this format (the memo checkpoint). On error dst is returned unchanged.
func AppendFrame(dst, body []byte) ([]byte, error) {
	b := append(openFrame(dst), body...)
	if err := sealFrame(b, len(dst)); err != nil {
		return dst, err
	}
	return b, nil
}

// frameAt reads the frame at off: its body, the offset just past it, and
// whether it is whole and checks out (an empty body never does — a zeroed
// tail is not a record). A frame that runs past the data ends at len(data);
// any length within it is taken, since the body is a view, not a copy.
func frameAt(data []byte, off int) (body []byte, end int, ok bool) {
	if off+frameHeaderLen > len(data) {
		return nil, len(data), false
	}
	n := binary.BigEndian.Uint32(data[off : off+4])
	if uint64(n) > uint64(len(data)-off-frameHeaderLen) {
		return nil, len(data), false
	}
	end = off + frameHeaderLen + int(n)
	body = data[off+frameHeaderLen : end]
	return body, end, n > 0 && crc32.Checksum(body, crcTable) == binary.BigEndian.Uint32(data[off+4:off+8])
}

// WalkFrames iterates the well-formed frames of data, calling apply for each
// body. It returns the byte offset just past the last good frame and whether
// data ended with a torn record (truncated or checksum-corrupt tail); a bad
// frame followed by a good one is an error naming its offset.
func WalkFrames(data []byte, apply func(body []byte) error) (good int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		body, end, ok := frameAt(data, off)
		if !ok {
			for next := end; next < len(data); {
				if _, next, ok = frameAt(data, next); ok {
					return int64(off), false, fmt.Errorf("wal: corrupt record at offset %d before an intact one", off)
				}
			}
			return int64(off), true, nil
		}
		if err := apply(body); err != nil {
			return int64(off), false, err
		}
		off = end
	}
	return int64(off), false, nil
}

// Body encoders. appendString/appendBytes are length-prefixed; ints use
// uvarint (zigzag varint where the value can be negative).

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// appendSubmitBody encodes a submit record body WITHOUT the leading type
// byte — the same shape is embedded per live task inside snapshot records.
func appendSubmitBody(b []byte, info *TaskInfo) []byte {
	b = binary.AppendUvarint(b, uint64(info.Key))
	b = binary.AppendVarint(b, int64(info.Priority))
	b = binary.AppendUvarint(b, uint64(info.Weight))
	b = binary.AppendUvarint(b, uint64(info.MaxRetries))
	b = appendString(b, info.App)
	b = appendString(b, info.MemoKey)
	b = appendString(b, info.Tenant)
	return appendBytes(b, info.Payload)
}

// bodyReader decodes record bodies; the first decode error sticks.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: truncated %s field", what)
	}
}

func (r *bodyReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) str(what string) string {
	return string(r.bytes(what))
}

// bytes returns a view into the body; callers that retain it must copy.
func (r *bodyReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail(what)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// readSubmitBody decodes one submit body (sans type byte), copying the
// payload so the TaskInfo outlives the segment buffer.
func readSubmitBody(r *bodyReader) *TaskInfo {
	info := &TaskInfo{}
	info.Key = int64(r.uvarint("key"))
	info.Priority = int(r.varint("priority"))
	info.Weight = int(r.uvarint("weight"))
	info.MaxRetries = int(r.uvarint("maxRetries"))
	info.App = r.str("app")
	info.MemoKey = r.str("memoKey")
	info.Tenant = r.str("tenant")
	info.Payload = append([]byte(nil), r.bytes("payload")...)
	return info
}

// apply folds one record body into the frontier.
func (f *Frontier) apply(body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("wal: empty record body")
	}
	r := &bodyReader{b: body[1:]}
	switch body[0] {
	case recSubmit:
		info := readSubmitBody(r)
		if r.err != nil {
			return r.err
		}
		f.Live[info.Key] = info
		if info.Key >= f.NextKey {
			f.NextKey = info.Key + 1
		}
	case recLaunch, recRetry:
		key := int64(r.uvarint("key"))
		r.uvarint("attempt")
		if r.err != nil {
			return r.err
		}
		if info := f.Live[key]; info != nil {
			info.Launches++
		}
	case recTerminal:
		key := int64(r.uvarint("key"))
		outcome := Outcome(r.uvarint("outcome"))
		value := r.bytes("value")
		if r.err != nil {
			return r.err
		}
		info := f.Live[key]
		delete(f.Live, key)
		f.Terminals[key] = Terminal{Outcome: outcome, Value: append([]byte(nil), value...), Info: info}
	case recSnapshot:
		// A snapshot supersedes everything replayed before it: compaction
		// wrote the full frontier, and any older segments that survived a
		// crash mid-compaction describe exactly the folded history.
		nextKey := int64(r.uvarint("nextKey"))
		folded := int64(r.uvarint("folded"))
		// Each entry is a launch count, a length and a submit body: at least
		// ten bytes, so the claim is bounded by the bytes left.
		nLive := r.uvarint("nLive")
		if nLive > uint64(len(r.b)/10) {
			r.fail("nLive")
			return r.err
		}
		live := make(map[int64]*TaskInfo, nLive)
		for i := uint64(0); i < nLive; i++ {
			launches := int(r.uvarint("launches"))
			entry := &bodyReader{b: r.bytes("entry")}
			info := readSubmitBody(entry)
			if r.err != nil || entry.err != nil {
				if r.err == nil {
					r.err = entry.err
				}
				return r.err
			}
			info.Launches = launches
			live[info.Key] = info
		}
		if r.err != nil {
			return r.err
		}
		f.NextKey = nextKey
		f.Folded = folded
		f.Live = live
		f.Terminals = make(map[int64]Terminal)
	default:
		return fmt.Errorf("wal: unknown record type %d", body[0])
	}
	if r.err != nil {
		return r.err
	}
	f.Records++
	return nil
}

func newFrontier() *Frontier {
	return &Frontier{
		NextKey:   1, // key 0 is reserved as "no WAL key"
		Live:      make(map[int64]*TaskInfo),
		Terminals: make(map[int64]Terminal),
	}
}

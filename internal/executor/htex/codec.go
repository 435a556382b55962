// Package htex implements Parsl's High Throughput Executor (§4.3.1): an
// executor client, an interchange brokering between the client and
// registered managers over the mq fabric, and multi-worker managers deployed
// one per node by a provider. It supports task batching with prefetch,
// randomized manager selection for fairness, heartbeat-based fault
// detection, lost-manager exceptions, a synchronous command channel, and
// block-based scaling.
//
// Wire path: task and result batches ride persistent per-connection
// streaming codecs (serialize.StreamEncoder/StreamDecoder) that amortize
// gob type-descriptor transmission across a session, and tasks travel as
// serialize.WireTask envelopes whose argument payload was encoded exactly
// once at submit time — the interchange queues, prioritizes, cancels, and
// re-frames tasks without ever decoding the argument bytes. Control frames
// (registration, ids, heartbeats, commands) stay one-shot: they are small,
// rare, and must be decodable without session state.
//
// The manager side of the protocol has one implementation, Manager. Anything
// that executes tasks behind an interchange — an HTEX node, an EXEX MPI pool
// — is a Manager constructed with a different exec step (StartManagerExec),
// so the frame tags and stream codecs below never leave this package.
package htex

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/serialize"
)

// Wire message type tags (first frame part).
const (
	frameTask    = "TASK"    // client -> interchange: one one-shot WireTask
	frameTaskSub = "TASKB"   // client -> interchange: streamed batch of WireTask
	frameTasks   = "TASKS"   // interchange -> manager: streamed batch of WireTask
	frameResults = "RESULTS" // manager -> interchange -> client: streamed batch of ResultMsg
	frameReg     = "REG"     // manager -> interchange: registration
	frameHB      = "HB"      // both directions
	frameCmd     = "CMD"     // client -> interchange: command channel
	frameCmdRep  = "CMDREP"  // interchange -> client: command reply
	frameLost    = "LOST"    // interchange -> client: tasks lost with a manager
	frameBye     = "BYE"     // manager -> interchange: clean departure
	frameCancel  = "CANCEL"  // client -> interchange -> manager: drop tasks not yet started
	frameNack    = "NACK"    // receiver -> sender: your stream (epoch attached) is undecodable; resync
)

// Stream-corruption recovery (NACK protocol)
//
// A persistent gob stream is stateful: one corrupted, truncated, or dropped
// frame can make every later frame of the same epoch undecodable, because
// type descriptors transmitted earlier in the stream are referenced, not
// repeated. Silently ignoring an undecodable frame therefore risks wedging a
// whole session. Instead, every stream receiver in the HTEX triangle NACKs
// the sender with the epoch of the frame it could not decode:
//
//   - interchange -> client  (client's TASKB stream failed): the client
//     resets its task encoder — the next frame opens a fresh, self-
//     describing epoch — and retransmits every in-flight task. Tasks that
//     were actually delivered execute twice at most; the client's pending
//     map delivers each result exactly once.
//   - client -> interchange  (interchange's RESULTS stream failed): the
//     interchange resets its client encoder. Results inside the lost frame
//     are gone — no layer retains delivered results — so the affected tasks
//     recover through the DFK's attempt timeout and retry. That backstop is
//     deliberate: retaining results for replay would buy little and cost a
//     replay buffer on the broker's hot path.
//   - manager -> interchange (manager's TASKS stream failed): the
//     interchange resets that manager's task encoder and requeues the
//     manager's entire outstanding set (it cannot know which tasks the lost
//     frame carried). Tasks the manager did receive run twice at most;
//     duplicates reconcile at the client.
//   - interchange -> manager (manager's RESULTS stream failed): the manager
//     resets its result encoder; the interchange requeues that manager's
//     outstanding set when it sends the NACK, so results lost in the bad
//     frame re-execute elsewhere rather than leaking broker capacity.
//
// "Manager" above includes EXEX pools: rank 0 of a pool is a Manager, so
// both manager legs resync the same way with no pool-side code.
//
// Stale NACKs are deduplicated by epoch: a receiver acts only when the
// NACKed epoch matches its encoder's current epoch, so a burst of failures
// against one epoch triggers exactly one reset/retransmit cycle.

// nackPayload encodes the undecodable frame's epoch for a NACK frame. A
// corrupted NACK payload is self-limiting — a wrong epoch matches nothing
// and the NACK is ignored — so no checksum is needed here.
func nackPayload(frame []byte) []byte {
	epoch, _ := serialize.PeekFrameEpoch(frame)
	// Epoch 0 is never issued by an encoder, so a NACK for a frame whose
	// header was itself mangled matches nothing and is ignored; the next
	// failing frame of the stream carries a readable epoch and repairs it.
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, epoch)
	return b
}

// nackEpoch decodes a NACK payload.
func nackEpoch(b []byte) uint32 {
	if len(b) != 4 {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// encodeIDs / decodeIDs carry wire-id lists (CANCEL, LOST) as checksummed
// one-shot frames: they are tiny and infrequent, so stream state would buy
// nothing, but they name tasks by id — a bit-flipped id that decoded
// "successfully" would cancel or fail the wrong task, so they get the same
// CRC-verified framing as task and result payloads.
func encodeIDs(ids []int64) ([]byte, error) {
	var out []byte
	err := serialize.OneShotCodec{}.EncodeFrame(ids, func(frame []byte) error {
		out = bytes.Clone(frame) // the frame is pooled, valid only during send
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("htex: encode ids: %w", err)
	}
	return out, nil
}

func decodeIDs(b []byte) ([]int64, error) {
	var ids []int64
	if err := serialize.NewStreamDecoder().DecodeFrame(b, &ids); err != nil {
		return nil, fmt.Errorf("htex: decode ids: %w", err)
	}
	return ids, nil
}

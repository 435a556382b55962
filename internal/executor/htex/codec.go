// Package htex implements Parsl's High Throughput Executor (§4.3.1): an
// executor client, an interchange brokering between the client and
// registered managers over the mq fabric, and multi-worker managers deployed
// one per node by a provider. It supports task batching with prefetch,
// randomized manager selection for fairness, heartbeat-based fault
// detection, lost-manager exceptions, a synchronous command channel, and
// block-based scaling.
//
// Wire path: task and result batches travel as checksummed, sequence-numbered
// binary frames on per-connection streams — fixed hand-written shapes, no
// self-describing stream and no reflection. Each end of a connection keeps
// its encoder, decoder, framed send and NACK repair in one peerStream, the
// one place the recovery rule below lives. Tasks are serialize.WireTask envelopes whose argument
// payload was encoded exactly once at submit time — the interchange queues,
// prioritizes, cancels, and re-frames tasks without ever decoding the argument
// bytes — and result batches cross the interchange the same way: it reads the
// batch's id column to release manager slots and relays the result envelopes
// as opaque bytes. Control frames (registration, ids, heartbeats, commands)
// are standalone: small, rare, and decodable without session state.
//
// The manager side of the protocol has one implementation, Manager. Anything
// that executes tasks behind an interchange — an HTEX node, an EXEX MPI pool
// — is a Manager constructed with a different exec step (StartManagerExec),
// so the frame tags and stream codecs below never leave this package.
package htex

import (
	"encoding/binary"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/mq"
	"repro/internal/serialize"
)

// Wire message type tags (first frame part).
const (
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

// The tags this package sends, as the byte slices mq takes: converting the
// constant at each send would allocate it each time.
var (
	tagTaskSub = []byte(frameTaskSub)
	tagTasks   = []byte(frameTasks)
	tagResults = []byte(frameResults)
	tagReg     = []byte(frameReg)
	tagHB      = []byte(frameHB)
	tagCmd     = []byte(frameCmd)
	tagCmdRep  = []byte(frameCmdRep)
	tagLost    = []byte(frameLost)
	tagBye     = []byte(frameBye)
	tagCancel  = []byte(frameCancel)
	tagNack    = []byte(frameNack)
)

// regPayload encodes a manager's capacity for its REG frame: the most tasks
// it holds at once, in decimal.
func regPayload(capacity int) []byte { return strconv.AppendInt(nil, int64(capacity), 10) }

// regCapacity decodes a REG payload. A payload that is not a positive decimal
// int registers nothing.
func regCapacity(b []byte) (int, bool) {
	n, err := strconv.Atoi(string(b))
	return n, err == nil && n > 0
}

// Stream-corruption recovery (NACK protocol)
//
// A stream's frames are numbered within an epoch, and a receiver accepts them
// only in order: after one corrupted, truncated, or dropped frame, every later
// frame of the same epoch is ahead of the number the receiver expects and
// fails too (serialize/stream.go has the rule and the reason it is there —
// the frames themselves would decode in isolation). A frame that failed
// carried tasks or results that are now lost, so silently ignoring it would
// leak them. Instead, every stream receiver in the HTEX triangle NACKs the
// sender with the epoch of the frame it could not accept; the sender resets
// its encoder — the next frame is frame 0 of a fresh epoch — and repairs:
//
//   - interchange -> client  (client's TASKB stream failed): the client
//     retransmits every in-flight task. Tasks that were actually delivered
//     execute twice at most; the client's inflight registry delivers each
//     result exactly once.
//   - client -> interchange  (interchange's RESULTS stream failed): nothing
//     more. Results inside the lost frame are gone — no layer retains
//     delivered results — so the affected tasks recover through the DFK's
//     attempt timeout and retry. That backstop is deliberate: retaining
//     results for replay would buy little and cost a replay buffer on the
//     broker's hot path.
//   - manager -> interchange (manager's TASKS stream failed): the
//     interchange requeues the manager's entire outstanding set (it cannot
//     know which tasks the lost frame carried). Tasks the manager did receive
//     run twice at most; duplicates reconcile at the client.
//   - interchange -> manager (manager's RESULTS stream failed): nothing more
//     on the manager; the interchange requeues that manager's outstanding set
//     when it sends the NACK, so results lost in the bad frame re-execute
//     elsewhere rather than leaking broker capacity.
//
// "Manager" above includes EXEX pools: rank 0 of a pool is a Manager, so
// both manager legs resync the same way with no pool-side code.
//
// Stale NACKs are deduplicated by epoch: a sender acts only when the NACKed
// epoch matches its encoder's current epoch, so a burst of failures against
// one epoch triggers exactly one reset/repair cycle (peerStream.resync).

// heldTask is a task envelope received in a stream frame, with the frame
// reference (mq.Frame.Hold) that keeps the storage its payload aliases from
// being reused; f is nil for a frame whose storage is not reused. Whoever
// holds the task — the interchange's queue or a manager's outstanding set, a
// manager's worker — releases f when the task is done with.
type heldTask struct {
	serialize.WireTask
	f *mq.Frame
}

// peerStream is one end of a connection's stream pair: the encoder of the
// frames this end sends (tag, chaos point and label say how), the decoder of
// those it receives, and the transport to the peer — a dealer, or peer on the
// interchange's router. The client keeps one per shard connection, a Manager
// one, and the interchange one per manager (in its record) and one for the
// client. dec is used only on the end's receive goroutine.
type peerStream struct {
	enc    *serialize.StreamEncoder
	dec    *serialize.StreamDecoder
	tag    []byte
	point  chaos.Point
	label  string
	dealer *mq.Dealer
	router *mq.Router
	peer   string
	// peerEpoch is the epoch of the last stream frame follow saw.
	peerEpoch uint32
}

// newPeerStream starts a stream pair over dealer d, or to peer over router r.
func newPeerStream(d *mq.Dealer, r *mq.Router, peer string, tag []byte, p chaos.Point, label string) peerStream {
	return peerStream{enc: serialize.NewStreamEncoder(), dec: serialize.NewStreamDecoder(),
		tag: tag, point: p, label: label, dealer: d, router: r, peer: peer}
}

// send hands one message to the peer.
func (ps *peerStream) send(msg mq.Message) error {
	if ps.dealer != nil {
		return ps.dealer.Send(msg)
	}
	return ps.router.SendTo(ps.peer, msg)
}

// ship is the framed send every enc.Encode* and RelayResults call takes: the
// frame passes the stream's chaos point, then goes to the peer under its tag.
func (ps *peerStream) ship(frame []byte) error {
	return chaos.Frame(ps.point, ps.label, frame, func(fr []byte) error {
		return ps.send(mq.Message{ps.tag, fr})
	})
}

// nack answers a frame dec refused with its epoch. A NACK that cannot be sent
// finds the connection gone, which the receive loop notices on its own.
func (ps *peerStream) nack(frame []byte) {
	_ = ps.send(mq.Message{tagNack, nackPayload(frame)})
}

// resync handles a NACK's payload: when it names enc's current epoch, enc
// restarts and resync reports true, so the caller runs its repair once. A
// NACK for an epoch already reset, for epoch 0 or of the wrong size does
// nothing.
func (ps *peerStream) resync(payload []byte) bool {
	epoch := nackEpoch(payload)
	if epoch == 0 || ps.enc.Epoch() != epoch {
		return false
	}
	ps.enc.Reset()
	return true
}

// follow is the interchange's new-session rule for its client leg: a TASKB
// frame of an epoch it has not seen starts a new client session (epochs are
// unique per encoder incarnation), so the RESULTS stream restarts and the
// newcomer's decoder can join it at frame 0. In-band, because connection
// events ride a lossy channel with no ordering against deliveries. The task
// decoder needs no such help: it resyncs on the epoch every frame carries.
func (ps *peerStream) follow(frame []byte) {
	if epoch, ok := serialize.PeekFrameEpoch(frame); ok && epoch != ps.peerEpoch {
		ps.peerEpoch = epoch
		ps.enc.Reset()
	}
}

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

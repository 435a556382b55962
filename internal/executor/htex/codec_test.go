package htex

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/chaos"
	"repro/internal/serialize"
)

// TestPeerStreamResyncOncePerEpoch pins the NACK rule (codec.go): a NACK
// naming the encoder's current epoch resets it, so the next frame is frame 0
// of a new epoch, and reports one repair; every other NACK, that same one
// again included, leaves the stream as it is and reports none. A burst of
// NACKs against one epoch therefore costs one retransmission or requeue.
func TestPeerStreamResyncOncePerEpoch(t *testing.T) {
	ps := newPeerStream(nil, nil, "", tagTaskSub, chaos.PointClientSend, "htex[0]")
	next := func() []byte {
		var frame []byte
		if err := ps.enc.EncodeTasks([]serialize.WireTask{{ID: 1, App: "echo"}}, func(fr []byte) error {
			frame = bytes.Clone(fr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return frame
	}
	// peer is the receiving end: it accepts only the frame it expects next,
	// or frame 0 of an epoch it has not seen.
	peer := serialize.NewStreamDecoder()
	accept := func(what string, frame []byte) {
		t.Helper()
		var batch []serialize.WireTask
		if err := peer.DecodeFrame(frame, &batch); err != nil || len(batch) != 1 {
			t.Fatalf("%s: the peer refused the frame (%d tasks, %v)", what, len(batch), err)
		}
	}
	for i := 0; i < 3; i++ {
		accept("frames 0-2", next())
	}
	lost := next() // frame 3 never arrives; the peer refuses frame 4 and NACKs its epoch
	nack := nackPayload(next())
	old, _ := serialize.PeekFrameEpoch(lost)

	if !ps.resync(nack) {
		t.Fatal("a NACK of the current epoch did not resync")
	}
	fresh := next()
	epoch, _ := serialize.PeekFrameEpoch(fresh)
	if epoch == old || ps.enc.Epoch() != epoch {
		t.Fatalf("after the resync the encoder is at epoch %d and sends epoch %d, the NACKed one was %d", ps.enc.Epoch(), epoch, old)
	}
	var batch []serialize.WireTask
	if err := serialize.NewStreamDecoder().DecodeFrame(fresh, &batch); err != nil {
		t.Fatalf("the first frame after the resync is not frame 0 of its epoch: %v", err)
	}
	accept("frame 0 of the new epoch", fresh)

	payload := func(e uint32) []byte { return binary.BigEndian.AppendUint32(nil, e) }
	for _, c := range []struct {
		what    string
		payload []byte
	}{
		{"the same NACK again", nack},
		{"a NACK of epoch 0", payload(0)},
		{"a NACK of 3 bytes", payload(epoch)[:3]},
		{"a NACK of 5 bytes", append(payload(epoch), 0)},
		{"a NACK of the next epoch", payload(epoch + 1)},
		{"a NACK of another encoder's epoch", payload(serialize.NewStreamEncoder().Epoch())},
	} {
		if ps.resync(c.payload) {
			t.Fatalf("%s (%x) reported a repair", c.what, c.payload)
		}
		if got := ps.enc.Epoch(); got != epoch {
			t.Fatalf("%s (%x) moved the encoder from epoch %d to %d", c.what, c.payload, epoch, got)
		}
		accept(c.what, next()) // the stream goes on in sequence
	}
}

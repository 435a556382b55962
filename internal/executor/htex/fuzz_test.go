package htex

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/mq"
	"repro/internal/serialize"
)

// FuzzControlFrames feeds arbitrary bytes to the decoders of htex's
// standalone control frames, under the contract of the other wire and disk
// fuzz targets: no panic, allocation bounded by a small multiple of the
// input, and what decodes re-encodes stably.
//
//   - reg is a REG payload. The capacity it carries sizes the interchange's
//     view of the manager and, on the manager, its result batch.
//   - frame is a stream frame a receiver could not accept; its NACK carries
//     the frame's epoch. The same bytes are also read as a NACK payload.
//   - reply is a CMDREP after its tag, parts separated by 0x00: the command
//     name, then the reply parts. The client's command wait must return it
//     exactly when it answers OUTSTANDING, and an OUTSTANDING count that
//     parses must survive the interchange's re-encoding.
func FuzzControlFrames(f *testing.F) {
	// Frames tier-1 puts on the wire: REG for the capacities the tests and
	// the benchmark run with, the epochs of real task and result frames, and
	// the command replies the interchange and the scripted-broker tests send.
	var frames [][]byte
	_ = serialize.NewStreamEncoder().EncodeTasks([]serialize.WireTask{{ID: 1, App: "echo", P: []byte{9}}},
		func(fr []byte) error { frames = append(frames, bytes.Clone(fr)); return nil })
	_ = serialize.NewStreamEncoder().EncodeResults([]serialize.ResultMsg{{ID: 1, Value: 1}, {ID: 2, Err: "boom"}},
		func(fr []byte) error { frames = append(frames, bytes.Clone(fr)); return nil })
	replies := []string{
		"OUTSTANDING\x000", "OUTSTANDING\x003\x007", "OUTSTANDING", "MANAGERS\x00mgr-a\x00mgr-b",
		"BLACKLIST\x00ok", "FLY\x00unknown-command", "",
	}
	for i, capacity := range []int{1, 2, 4, 8, 16, 32} {
		fr := frames[i%len(frames)]
		f.Add(regPayload(capacity), fr, []byte(replies[i%len(replies)]))
		f.Add(regPayload(capacity), nackPayload(fr), []byte(replies[(i+3)%len(replies)]))
	}
	f.Add([]byte("0"), []byte{}, []byte("OUTSTANDING\x00-1"))
	f.Add([]byte("+4"), frames[0][:4], []byte("OUTSTANDING\x009223372036854775808"))

	// One seed frame whose epoch field the NACK re-encoding check rewrites.
	template := frames[0]
	f.Fuzz(func(t *testing.T, reg, frame, reply []byte) {
		in := len(reg) + len(frame) + len(reply)
		parts := bytes.Split(reply, []byte{0})
		msg := mq.Message{tagCmdRep}
		if len(reply) > 0 {
			msg = append(msg, parts...)
		}
		s := &shardLink{label: "htex[0]", cmdReplies: make(chan mq.Message, 2)}
		s.cmdReplies <- msg
		sentinel := mq.Message{tagCmdRep, []byte("OUTSTANDING")}
		s.cmdReplies <- sentinel

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		capacity, regOK := regCapacity(reg)
		payload := nackPayload(frame)
		epoch := nackEpoch(frame)
		rep, ok := s.awaitReply("OUTSTANDING", time.Minute)
		runtime.ReadMemStats(&after)
		// The fixed part, as in the other fuzz targets, covers the wait's
		// timer, the 4-byte NACK payload and what the fuzzing engine's own
		// goroutines allocate meanwhile; the multiple, a REG payload that is
		// not a number: the conversion copies it, and strconv's error keeps a
		// second copy for its message.
		if used, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+4*in); used > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", in, used, limit)
		}

		if regOK {
			if capacity <= 0 {
				t.Fatalf("REG %q registered capacity %d", reg, capacity)
			}
			if again, ok := regCapacity(regPayload(capacity)); !ok || again != capacity {
				t.Fatalf("REG %q: capacity %d re-encodes to %q, read back as %d, %v", reg, capacity, regPayload(capacity), again, ok)
			}
		}

		want, _ := serialize.PeekFrameEpoch(frame)
		if len(payload) != 4 || nackEpoch(payload) != want {
			t.Fatalf("NACK for frame %x = %x, which reads as epoch %d; want epoch %d", frame, payload, nackEpoch(payload), want)
		}
		if epoch != 0 {
			if len(frame) != 4 {
				t.Fatalf("NACK payload of %d bytes read as epoch %d", len(frame), epoch)
			}
			fr := bytes.Clone(template)
			binary.BigEndian.PutUint32(fr[1:5], epoch)
			if got, _ := serialize.PeekFrameEpoch(fr); got != epoch {
				t.Fatalf("epoch %d written into a frame header reads back as %d", epoch, got)
			}
			if again := nackPayload(fr); !bytes.Equal(again, frame) {
				t.Fatalf("NACK payload %x re-encodes as %x", frame, again)
			}
		}

		if !ok {
			t.Fatal("the sentinel OUTSTANDING reply was skipped")
		}
		answers := len(msg) >= 2 && string(msg[1]) == "OUTSTANDING"
		if gotFuzzed := &rep[0] == &msg[0]; answers != gotFuzzed {
			t.Fatalf("reply %q: returned %q, want the fuzzed reply = %v", msg, rep, answers)
		}
		if !answers {
			return
		}
		<-s.cmdReplies // the sentinel, still queued
		re := mq.Message{tagCmdRep, []byte("OUTSTANDING")}
		for _, p := range rep[2:] {
			n, err := strconv.Atoi(string(p))
			if err != nil {
				re = append(re, p)
				continue
			}
			re = append(re, []byte(strconv.Itoa(n)))
			if again, err := strconv.Atoi(string(re[len(re)-1])); err != nil || again != n {
				t.Fatalf("OUTSTANDING count %q re-encodes to %q, read back as %d, %v", p, re[len(re)-1], again, err)
			}
		}
		s.cmdReplies <- re
		if back, ok := s.awaitReply("OUTSTANDING", time.Minute); !ok || &back[0] != &re[0] {
			t.Fatalf("re-encoded reply %q came back as %q, %v", re, back, ok)
		}
	})
}

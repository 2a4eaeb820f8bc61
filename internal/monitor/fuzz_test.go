package monitor

import (
	"crypto/md5"
	"encoding/binary"
	"testing"

	"frostlab/internal/delta"
)

// FuzzParseLedger hardens the central accounting parser against mirrored
// content from a compromised or corrupted agent.
func FuzzParseLedger(f *testing.F) {
	f.Add([]byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
	f.Add([]byte("ERROR boom\n"))
	f.Add([]byte(""))
	f.Add([]byte("2010-02-19T12:10:00Z BAD 900150983cd24fb0d6963f7d28e17f72 (1 of 20)\n"))
	f.Add([]byte("\x00\x01\x02 not text"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := ParseLedger(data)
		if err != nil {
			return
		}
		if sum.OK < 0 || sum.Bad < 0 || sum.Errors < 0 {
			t.Fatal("negative counts")
		}
		if ledgerTotal(sum) > 0 && !sum.LastAt.IsZero() && sum.LastAt.Before(sum.FirstAt) {
			t.Fatal("time bounds inverted")
		}
	})
}

// FuzzDecodeNamed hardens the protocol's name framing.
func FuzzDecodeNamed(f *testing.F) {
	f.Add(append(appendNamed(nil, "md5sums.log"), "payload"...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, rest, err := decodeNamed(data)
		if err != nil {
			return
		}
		if len(name)+len(rest)+2 != len(data) {
			t.Fatal("decoded parts do not account for the payload")
		}
	})
}

// FuzzAgentAppendFrame feeds arbitrary append-request payloads to an
// Agent over an authenticated pipe. Every request must draw a delta, stale
// or error reply, never a panic or a dropped session, and a delta may only
// answer a request whose prefix digest matches the agent's file.
func FuzzAgentAppendFrame(f *testing.F) {
	content := []byte("2010-02-19T12:10:00Z cpu=-4.1\n2010-02-19T12:30:00Z cpu=-3.9\n")
	store := NewFileStore()
	store.Append(SensorLog, content)
	agent := NewAgent("01", store)
	aSess, cSess := connectPair(f, "01")
	go func() { _ = agent.Serve(aSess) }()

	sig := func(old []byte) *delta.Signature {
		s, err := delta.NewSignature(old, 16)
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	f.Add(appendRequest(nil, SensorLog, 0, md5.Sum(nil), sig(nil)))
	f.Add(appendRequest(nil, SensorLog, 32, md5.Sum(content[:32]), sig(content[32:40])))
	f.Add(appendRequest(nil, SensorLog, 32, md5.Sum(content[:31]), sig(nil)))
	f.Add(appendRequest(nil, SensorLog, len(content)+1, md5.Sum(content), sig(nil)))
	f.Add(appendRequest(nil, MD5Log, 0, md5.Sum(nil), sig([]byte("x"))))
	f.Add(append(appendNamed(nil, SensorLog), "short"...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := cSess.Send(ftAppend, payload); err != nil {
			return // larger than a frame may be
		}
		ft, reply, err := cSess.Recv()
		if err != nil {
			t.Fatalf("agent dropped the session: %v", err)
		}
		switch ft {
		case ftError, ftStale:
		case ftDelta:
			_, body, err := decodeNamed(reply)
			if err != nil {
				t.Fatalf("delta reply: %v", err)
			}
			if _, err := delta.UnmarshalDelta(body); err != nil {
				t.Fatalf("delta reply does not decode: %v", err)
			}
			name, p, _ := decodeNamed(payload)
			off := binary.BigEndian.Uint64(p)
			file := store.Get(name)
			if off > uint64(len(file)) || md5.Sum(file[:off]) != [md5.Size]byte(p[8:appendHeader]) {
				t.Fatalf("delta answered an unverified prefix at offset %d", off)
			}
		default:
			t.Fatalf("reply frame %d, want delta, stale or error", ft)
		}
	})
}

// FuzzInProcessPump writes arbitrary bytes to the agent's end of an
// established in-process session and has the collector read. Nothing else
// will ever write to the agent, so every input must draw a reply or an
// error, and Retire must then end the session: never a panic or a hang.
func FuzzInProcessPump(f *testing.F) {
	store := NewFileStore()
	store.Append(SensorLog, []byte("2010-02-19T12:10:00Z cpu=-4.1\n"))
	agent := NewAgent("01", store)
	dial := func(t testing.TB) *InProcessSession {
		s, err := DialInProcess(agent, "01", []byte("key"), "pump")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Every dial derives the same session key, so a frame recorded on
	// one session is valid as the first frame of the next.
	for _, fr := range []struct {
		ft      byte
		payload []byte
	}{{ftList, nil}, {ftPing, nil}, {ftBye, nil}, {99, []byte("x")}, {ftAppend, appendNamed(nil, SensorLog)}} {
		s := dial(f)
		if err := s.sess.Send(fr.ft, fr.payload); err != nil {
			f.Fatal(err)
		}
		q := s.lb.q[toAgent]
		frame := append([]byte(nil), q.buf[q.off:]...)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(frame, frame...))
		s.Close()
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, ftList})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := dial(t)
		if _, err := (loopEnd{s.lb, toCollector}).Write(data); err != nil {
			t.Fatal(err)
		}
		ft, _, err := s.sess.Recv()
		switch {
		case err != nil:
			if !s.lb.isClosed() {
				t.Fatalf("collector read failed (%v) on a live session", err)
			}
		case ft != ftListResp && ft != ftPong && ft != ftError && ft != ftStale && ft != ftDelta:
			t.Fatalf("reply frame %d", ft)
		}
		_ = s.Retire()
		if !s.lb.isClosed() {
			t.Fatal("retired session still open")
		}
	})
}

package monitor

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"frostlab/internal/wire"
)

// TestStoreViewsKeepTheirBytes: a view From returned keeps its bytes
// through a later Append, a truncating Splice and a Put, and an append to
// the view leaves the store alone.
func TestStoreViewsKeepTheirBytes(t *testing.T) {
	fs := NewFileStore()
	fs.Append(SensorLog, []byte("line1\nline2\n"))
	view, _, _ := fs.From(SensorLog, 0)
	fs.Append(SensorLog, []byte("l3\n"))
	_ = append(view, "XYZ"...)
	if got := string(fs.Get(SensorLog)); got != "line1\nline2\nl3\n" {
		t.Fatalf("an append to a view changed the store to %q", got)
	}
	check := func(what string, view []byte, want string) {
		t.Helper()
		if string(view) != want {
			t.Errorf("after %s the view reads %q, want %q", what, view, want)
		}
	}
	check("an append", view, "line1\nline2\n")

	tail, _, _ := fs.From(SensorLog, 6)
	if err := fs.Splice(SensorLog, 6, []byte("LINE2\n")); err != nil {
		t.Fatal(err)
	}
	check("a truncating splice", view, "line1\nline2\n")
	check("a truncating splice", tail, "line2\nl3\n")
	fs.Append(SensorLog, []byte("l4\n"))
	check("an append after a truncating splice", tail, "line2\nl3\n")

	spliced, _, _ := fs.From(SensorLog, 0)
	fs.Put(SensorLog, []byte("rotated\n"))
	check("a put", spliced, "line1\nLINE2\nl4\n")
	if got := string(fs.Get(SensorLog)); got != "rotated\n" {
		t.Errorf("store reads %q after the put", got)
	}
}

// TestStoreViewsUnderConcurrentAppends runs a logger goroutine, as
// cmd/nodeagent's host does, appending lines to the store and now and
// then rewriting the last one or replacing the file, while an agent
// serves append-verify rounds over a net.Pipe from views of that store.
// Under -race, a write to bytes a view still holds is reported; at the
// end the mirror must equal the store.
func TestStoreViewsUnderConcurrentAppends(t *testing.T) {
	const host, lines = "01", 600
	store := NewFileStore()
	store.Append(MD5Log, []byte("d41d8cd98f00b204e9800998ecf8427e  boot\n"))
	coll := NewCollector(256)
	sess, err := dialPipe(NewAgent(host, store), host, wire.DerivePSK("views", host), "views")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var line []byte
		for i := 0; i < lines; i++ {
			line = fmt.Appendf(line[:0], "2010-02-19T12:%02d:%02dZ cpu=-%d.%d\n", i/60%60, i%60, i%9, i%7)
			switch {
			case i%97 == 96:
				store.Put(SensorLog, append(store.Get(SensorLog), line...))
			case i%13 == 12:
				// Rewrite the last 256 bytes as themselves in capitals: a
				// truncating splice over bytes an agent's view may hold.
				off := max(store.Size(SensorLog)-256, 0)
				last, _, _ := store.From(SensorLog, off)
				_ = store.Splice(SensorLog, off, bytes.ToUpper(last))
				store.Append(SensorLog, line)
			default:
				store.Append(SensorLog, line)
			}
			runtime.Gosched() // let rounds interleave with the writes
		}
	}()
	rounds := 0
	for running := true; running; rounds++ {
		select {
		case <-done:
			running = false // one more round, after the last write
		default:
		}
		if _, err := sess.Collect(coll, t0); err != nil {
			t.Fatalf("round %d: %v", rounds, err)
		}
	}
	if err := sess.Retire(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MD5Log, SensorLog} {
		if got, want := coll.Mirror(host).Get(name), store.Get(name); !bytes.Equal(got, want) {
			t.Errorf("%s after %d rounds: mirror of %d bytes differs from the store's %d", name, rounds, len(got), len(want))
		}
	}
}

package monitor

import (
	"bytes"
	"crypto/md5"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/wire"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

func TestFileStoreBasics(t *testing.T) {
	fs := NewFileStore()
	if got := fs.Get("missing"); got != nil {
		t.Errorf("missing file = %v", got)
	}
	fs.Append(MD5Log, []byte("line1\n"))
	fs.Append(MD5Log, []byte("line2\n"))
	if got := string(fs.Get(MD5Log)); got != "line1\nline2\n" {
		t.Errorf("append result %q", got)
	}
	fs.Put(SensorLog, []byte("temp -4\n"))
	names := fs.Names()
	if len(names) != 2 || names[0] != MD5Log || names[1] != SensorLog {
		t.Errorf("names %v", names)
	}
	if fs.Size(MD5Log) != 12 {
		t.Errorf("size %d", fs.Size(MD5Log))
	}
	// Get must return a copy.
	g := fs.Get(MD5Log)
	g[0] = 'X'
	if fs.Get(MD5Log)[0] == 'X' {
		t.Error("Get exposed internal buffer")
	}
	// From copies the suffix; only non-append writes move the generation.
	suffix, gen, ok := fs.From(MD5Log, 6)
	if !ok || string(suffix) != "line2\n" {
		t.Errorf("From(6) = %q, %v", suffix, ok)
	}
	if _, _, ok := fs.From(MD5Log, 13); ok {
		t.Error("From past the end succeeded")
	}
	fs.Append(MD5Log, []byte("line3\n"))
	if err := fs.Splice(MD5Log, 18, []byte("line4\n")); err != nil {
		t.Fatal(err)
	}
	if _, g, _ := fs.From(MD5Log, 0); g != gen {
		t.Errorf("appends moved the generation %d -> %d", gen, g)
	}
	if err := fs.Splice(MD5Log, 6, []byte("LINE2\n")); err != nil {
		t.Fatal(err)
	}
	if got, g, _ := fs.From(MD5Log, 0); string(got) != "line1\nLINE2\n" || g == gen {
		t.Errorf("truncating splice gave %q at generation %d (was %d)", got, g, gen)
	}
	if err := fs.Splice(MD5Log, 13, nil); err == nil {
		t.Error("splice past the end succeeded")
	}
}

func TestFileStoreConcurrent(t *testing.T) {
	fs := NewFileStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				fs.Append(fmt.Sprintf("f%d", i%2), []byte("x"))
				_ = fs.Get("f0")
				_ = fs.Names()
			}
		}(i)
	}
	wg.Wait()
	if fs.Size("f0")+fs.Size("f1") != 800 {
		t.Errorf("lost appends: %d + %d", fs.Size("f0"), fs.Size("f1"))
	}
}

// connectPair builds an authenticated agent/collector session pair over an
// in-memory pipe.
func connectPair(t testing.TB, hostID string) (agentSess, collSess *wire.Session) {
	t.Helper()
	keys := wire.Keystore{hostID: []byte("key-" + hostID)}
	a, c := net.Pipe()
	t.Cleanup(func() { a.Close(); c.Close() })
	var wg sync.WaitGroup
	var aerr, cerr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		agentSess, aerr = wire.Accept(a, keys, wire.CounterNonce("agent"))
	}()
	go func() {
		defer wg.Done()
		collSess, cerr = wire.Dial(c, hostID, keys[hostID], wire.CounterNonce("coll"))
	}()
	wg.Wait()
	if aerr != nil || cerr != nil {
		t.Fatalf("handshake: %v / %v", aerr, cerr)
	}
	return agentSess, collSess
}

// TestCollectorHistoryBounded: over many rounds History keeps only the
// latest recentRounds, and the collector's memory of rounds stays within
// twice that, while Totals counts every round and byte exactly.
func TestCollectorHistoryBounded(t *testing.T) {
	store := NewFileStore()
	coll := NewCollector(0)
	sess, err := DialInProcess(NewAgent("01", store), "01", []byte("psk-01"), "history")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const n = 3*recentRounds + 7
	var all []RoundStats
	var literal, total int
	for i := 0; i < n; i++ {
		store.Append(SensorLog, []byte(fmt.Sprintf("round %d cpu=-4.0\n", i)))
		stats, err := sess.Collect(coll, t0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stats)
		literal += stats.LiteralBytes
		total += stats.TotalBytes
		if got := cap(coll.recent); got > 2*recentRounds {
			t.Fatalf("round %d: collector holds room for %d rounds, want at most %d", i, got, 2*recentRounds)
		}
	}
	if got, want := coll.History(), all[n-recentRounds:]; !slices.Equal(got, want) {
		t.Errorf("History holds %d rounds from %v, want the last %d from %v", len(got), got[0].At, len(want), want[0].At)
	}
	rounds, gotLiteral, gotTotal := coll.Totals()
	if rounds != n || gotLiteral != literal || gotTotal != total {
		t.Errorf("Totals = %d rounds, %d literal, %d total bytes; want %d, %d, %d", rounds, gotLiteral, gotTotal, n, literal, total)
	}
}

func TestCollectRoundOverPipe(t *testing.T) {
	store := NewFileStore()
	store.Append(MD5Log, []byte("cycle1 ok d41d8cd9\n"))
	store.Append(SensorLog, []byte("2010-02-19 cpu=-4.0\n"))
	agent := NewAgent("01", store)
	coll := NewCollector(0)

	agentSess, collSess := connectPair(t, "01")
	done := make(chan error, 1)
	go func() { done <- agent.Serve(agentSess) }()
	stats, err := coll.CollectHost(collSess, "01", t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("agent: %v", err)
	}
	if stats.Files != 2 {
		t.Errorf("synced %d files, want 2", stats.Files)
	}
	mirror := coll.Mirror("01")
	if !bytes.Equal(mirror.Get(MD5Log), store.Get(MD5Log)) {
		t.Error("md5 log mirror differs")
	}
	if !bytes.Equal(mirror.Get(SensorLog), store.Get(SensorLog)) {
		t.Error("sensor log mirror differs")
	}
	if len(coll.History()) != 1 {
		t.Errorf("history %d rounds", len(coll.History()))
	}
}

func TestIncrementalRoundsMoveOnlyNewBytes(t *testing.T) {
	store := NewFileStore()
	bulk := bytes.Repeat([]byte("sensor line with some content 12345\n"), 2000)
	store.Append(SensorLog, bulk)
	agent := NewAgent("01", store)
	coll := NewCollector(512)

	// Round 1: everything travels.
	aSess, cSess := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess) }()
	s1, err := coll.CollectHost(cSess, "01", t0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.LiteralBytes < len(bulk) {
		t.Errorf("first round moved %d literal bytes, want >= %d", s1.LiteralBytes, len(bulk))
	}

	// Round 2: only the appended tail should travel.
	tail := []byte("new reading appended after round one\n")
	store.Append(SensorLog, tail)
	aSess2, cSess2 := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess2) }()
	s2, err := coll.CollectHost(cSess2, "01", t0.Add(CollectionPeriod))
	if err != nil {
		t.Fatal(err)
	}
	if s2.LiteralBytes > len(tail)+1024 {
		t.Errorf("second round moved %d literal bytes, want ≈ %d (delta sync)", s2.LiteralBytes, len(tail))
	}
	if !bytes.Equal(coll.Mirror("01").Get(SensorLog), store.Get(SensorLog)) {
		t.Error("mirror diverged after incremental round")
	}
	if s2.Savings() < 0.9 {
		t.Errorf("savings %.2f, want > 0.9 for an append-only log", s2.Savings())
	}
}

func TestCollectOverRealTCP(t *testing.T) {
	// The full networked path: TCP listener, authenticated session,
	// delta-synced collection — cmd/collectord and cmd/nodeagent in
	// miniature.
	store := NewFileStore()
	store.Append(MD5Log, []byte("01 ok\n02 ok\n"))
	agent := NewAgent("02", store)
	keys := wire.Keystore{"02": []byte("tcp-key")}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		sess, err := wire.Accept(conn, keys, wire.CounterNonce("srv"))
		if err != nil {
			serveErr <- err
			return
		}
		serveErr <- agent.Serve(sess)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := wire.Dial(conn, "02", keys["02"], wire.CounterNonce("cli"))
	if err != nil {
		t.Fatal(err)
	}
	coll := NewCollector(0)
	stats, err := coll.CollectHost(sess, "02", t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("agent over TCP: %v", err)
	}
	if stats.Files != 1 || !bytes.Equal(coll.Mirror("02").Get(MD5Log), store.Get(MD5Log)) {
		t.Error("TCP collection incomplete")
	}
}

func TestCollectEmptyAgent(t *testing.T) {
	agent := NewAgent("01", NewFileStore())
	coll := NewCollector(0)
	aSess, cSess := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess) }()
	stats, err := coll.CollectHost(cSess, "01", t0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 0 || stats.TotalBytes != 0 {
		t.Errorf("empty agent stats %+v", stats)
	}
}

func TestAgentReportsErrors(t *testing.T) {
	agent := NewAgent("01", NewFileStore())
	aSess, cSess := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess) }()
	// Send an append request with a malformed signature directly: offset
	// 0, the empty file's digest, then no signature.
	empty := md5.Sum(nil)
	req := append(append(make([]byte, 8), empty[:]...), "not a signature"...)
	if err := cSess.Send(ftAppend, append(appendNamed(nil, "x"), req...)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := cSess.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ft != ftError || len(payload) == 0 {
		t.Errorf("frame %d %q, want error frame", ft, payload)
	}
	// Agent must still be serving after the error.
	if err := cSess.Send(ftBye, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAgentUnknownFrame(t *testing.T) {
	agent := NewAgent("01", NewFileStore())
	aSess, cSess := connectPair(t, "01")
	go func() { _ = agent.Serve(aSess) }()
	if err := cSess.Send(99, nil); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := cSess.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ft != ftError || !strings.Contains(string(payload), "unknown frame") {
		t.Errorf("frame %d %q", ft, payload)
	}
	_ = cSess.Send(ftBye, nil)
}

func TestRemoteErrorSurfacesInCollect(t *testing.T) {
	// An agent error mid-round must surface as ErrRemote. Arrange by
	// having a rogue "agent" that always errors.
	keys := wire.Keystore{"01": []byte("key-01")}
	a, c := net.Pipe()
	defer a.Close()
	defer c.Close()
	var wg sync.WaitGroup
	var aSess, cSess *wire.Session
	var aerr, cerr error
	wg.Add(2)
	go func() { defer wg.Done(); aSess, aerr = wire.Accept(a, keys, wire.CounterNonce("a")) }()
	go func() { defer wg.Done(); cSess, cerr = wire.Dial(c, "01", keys["01"], wire.CounterNonce("c")) }()
	wg.Wait()
	if aerr != nil || cerr != nil {
		t.Fatal(aerr, cerr)
	}
	go func() {
		_, _, _ = aSess.Recv()
		_ = aSess.Send(ftError, []byte("disk on fire"))
	}()
	coll := NewCollector(0)
	_, err := coll.CollectHost(cSess, "01", t0)
	if !errors.Is(err, ErrRemote) {
		t.Errorf("error %v, want ErrRemote", err)
	}
}

func TestDecodeNamedValidation(t *testing.T) {
	if _, _, err := decodeNamed(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, _, err := decodeNamed([]byte{0, 9, 'a'}); err == nil {
		t.Error("overlong name accepted")
	}
	name, rest, err := decodeNamed(append(appendNamed(nil, "file.log"), "payload"...))
	if err != nil || name != "file.log" || string(rest) != "payload" {
		t.Errorf("round trip: %q %q %v", name, rest, err)
	}
}

func TestRoundStatsSavings(t *testing.T) {
	if s := (RoundStats{}).Savings(); s != 0 {
		t.Errorf("zero round savings %v", s)
	}
	rs := RoundStats{LiteralBytes: 100, TotalBytes: 1000}
	if s := rs.Savings(); s != 0.9 {
		t.Errorf("savings %v, want 0.9", s)
	}
}

func BenchmarkCollectionRound(b *testing.B) {
	store := NewFileStore()
	store.Append(SensorLog, bytes.Repeat([]byte("reading\n"), 50000))
	agent := NewAgent("01", store)
	keys := wire.Keystore{"01": []byte("key")}
	coll := NewCollector(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := net.Pipe()
		var wg sync.WaitGroup
		var aSess, cSess *wire.Session
		wg.Add(2)
		go func() { defer wg.Done(); aSess, _ = wire.Accept(a, keys, wire.CounterNonce("a")) }()
		go func() { defer wg.Done(); cSess, _ = wire.Dial(c, "01", keys["01"], wire.CounterNonce("c")) }()
		wg.Wait()
		go func() { _ = agent.Serve(aSess) }()
		if _, err := coll.CollectHost(cSess, "01", t0); err != nil {
			b.Fatal(err)
		}
		a.Close()
		c.Close()
		store.Append(SensorLog, []byte("one more line\n"))
	}
}

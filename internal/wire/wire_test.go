package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

// pipePair returns a connected in-memory duplex pair.
func pipePair() (net.Conn, net.Conn) {
	return net.Pipe()
}

// rwShim adapts a read-only stream into the io.ReadWriter a Session needs.
type rwShim struct {
	io.Reader
}

func (rwShim) Write(p []byte) (int, error) { return len(p), nil }

type handshakeResult struct {
	sess *Session
	err  error
}

// connect runs Dial and Accept concurrently over a pipe.
func connect(t *testing.T, hostID string, clientKey []byte, keys Keystore) (*Session, *Session, error, error) {
	t.Helper()
	c, s := pipePair()
	t.Cleanup(func() { c.Close(); s.Close() })
	var wg sync.WaitGroup
	var cli, srv handshakeResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		cli.sess, cli.err = Dial(c, hostID, clientKey, CounterNonce("cli"))
		if cli.err != nil {
			c.Close() // unblock a peer still waiting on the handshake
		}
	}()
	go func() {
		defer wg.Done()
		srv.sess, srv.err = Accept(s, keys, CounterNonce("srv"))
		if srv.err != nil {
			s.Close()
		}
	}()
	wg.Wait()
	return cli.sess, srv.sess, cli.err, srv.err
}

var testKeys = Keystore{"01": []byte("host-01-preshared-key")}

func TestHandshakeAndRoundTrip(t *testing.T) {
	cli, srv, cerr, serr := connect(t, "01", testKeys["01"], testKeys)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client %v, server %v", cerr, serr)
	}
	if srv.peer != "01" {
		t.Errorf("server authenticated peer %q, want 01", srv.peer)
	}
	msgs := [][]byte{[]byte("hello"), []byte(""), bytes.Repeat([]byte{0xAB}, 100000)}
	done := make(chan error, 1)
	go func() {
		for i, m := range msgs {
			if err := cli.Send(byte(i), m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, want := range msgs {
		ft, got, err := srv.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ft != byte(i) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d len %d", i, ft, len(got))
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBidirectional(t *testing.T) {
	cli, srv, cerr, serr := connect(t, "01", testKeys["01"], testKeys)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v / %v", cerr, serr)
	}
	go func() {
		_, req, _ := srv.Recv()
		_ = srv.Send(2, append([]byte("re: "), req...))
	}()
	if err := cli.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	ft, resp, err := cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ft != 2 || string(resp) != "re: ping" {
		t.Errorf("response type %d %q", ft, resp)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	_, _, cerr, serr := connect(t, "01", []byte("not the right key"), testKeys)
	if serr == nil && cerr == nil {
		t.Fatal("handshake with wrong key succeeded")
	}
	// The client detects the mismatch first (the server's proof is keyed
	// differently); the server then sees the aborted connection.
	if !errors.Is(cerr, ErrAuth) {
		t.Errorf("client error %v, want ErrAuth", cerr)
	}
	if serr == nil {
		t.Error("server completed a handshake the client aborted")
	}
}

func TestUnknownHostRejected(t *testing.T) {
	_, _, _, serr := connect(t, "zz", []byte("whatever"), testKeys)
	if serr == nil {
		t.Fatal("unknown host accepted")
	}
	if !errors.Is(serr, ErrUnknownPeer) {
		t.Errorf("error %v, want ErrUnknownPeer", serr)
	}
}

func TestServerImpersonationDetected(t *testing.T) {
	// A server that doesn't know the PSK can't fake its proof.
	c, s := pipePair()
	defer c.Close()
	defer s.Close()
	go func() {
		// Malicious server: answer with garbage proof.
		_, _ = readBlob(s, 256)       // hostID
		_, _ = readBlob(s, NonceSize) // client nonce
		sn, _ := CounterNonce("evil")()
		_ = writeBlob(s, sn)
		_ = writeBlob(s, make([]byte, macSize))
	}()
	_, err := Dial(c, "01", testKeys["01"], CounterNonce("cli"))
	if !errors.Is(err, ErrAuth) {
		t.Errorf("client accepted fake server: %v", err)
	}
}

// tamperConn wraps a conn and flips a byte in the nth written frame body.
type tamperConn struct {
	net.Conn
	writes int
	target int
}

func (tc *tamperConn) Write(p []byte) (int, error) {
	tc.writes++
	if tc.writes == tc.target && len(p) > 0 {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x01
		return tc.Conn.Write(q)
	}
	return tc.Conn.Write(p)
}

func TestTamperedFrameDetected(t *testing.T) {
	c, s := pipePair()
	defer c.Close()
	defer s.Close()
	var wg sync.WaitGroup
	var cli, srv handshakeResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		cli.sess, cli.err = Dial(c, "01", testKeys["01"], CounterNonce("cli"))
	}()
	go func() {
		defer wg.Done()
		srv.sess, srv.err = Accept(s, testKeys, CounterNonce("srv"))
	}()
	wg.Wait()
	if cli.err != nil || srv.err != nil {
		t.Fatalf("handshake: %v / %v", cli.err, srv.err)
	}
	// Re-wrap the client side so the first Send's only write (header,
	// payload and tag in one frame) is corrupted. The payload is longer
	// than header and tag together, so the flipped middle byte lies
	// inside it.
	cli.sess.rw = &tamperConn{Conn: c, target: 1}
	go func() { _ = cli.sess.Send(1, []byte("2010-02-19T12:10:00Z cpu0 -4.0 sda 12")) }()
	_, _, err := srv.sess.Recv()
	if !errors.Is(err, ErrTampered) {
		t.Errorf("tampered frame error %v, want ErrTampered", err)
	}
}

func TestReplayDetected(t *testing.T) {
	// Capture a frame's bytes and feed them twice: the second must fail
	// because the receiver's sequence number has advanced.
	var captured bytes.Buffer
	cliKey := testKeys["01"]
	// Handshake over a pipe, but then send into a buffer we control.
	c, s := pipePair()
	defer c.Close()
	defer s.Close()
	var wg sync.WaitGroup
	var cli, srv handshakeResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		cli.sess, cli.err = Dial(c, "01", cliKey, CounterNonce("cli"))
	}()
	go func() {
		defer wg.Done()
		srv.sess, srv.err = Accept(s, testKeys, CounterNonce("srv"))
	}()
	wg.Wait()
	if cli.err != nil || srv.err != nil {
		t.Fatalf("handshake: %v / %v", cli.err, srv.err)
	}
	cli.sess.rw = &captured
	if err := cli.sess.Send(7, []byte("one-time report")); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), captured.Bytes()...)
	srv.sess.rw = rwShim{bytes.NewReader(append(frame, frame...))} // frame twice
	if _, _, err := srv.sess.Recv(); err != nil {
		t.Fatalf("first delivery failed: %v", err)
	}
	if _, _, err := srv.sess.Recv(); !errors.Is(err, ErrTampered) {
		t.Errorf("replayed frame error %v, want ErrTampered", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	cli, _, cerr, serr := connect(t, "01", testKeys["01"], testKeys)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v / %v", cerr, serr)
	}
	if err := cli.Send(1, make([]byte, MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize send error %v", err)
	}
}

func TestOversizeHeaderRejected(t *testing.T) {
	s := newSession(rwShim{bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1})}, []byte("k"), "")
	if _, _, err := s.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize header error %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	s := newSession(rwShim{bytes.NewReader([]byte{0, 0, 0, 5, 1, 'a', 'b'})}, []byte("k"), "")
	if _, _, err := s.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated stream error %v", err)
	}
}

func TestCounterNonceDeterministicAndDistinct(t *testing.T) {
	a, b := CounterNonce("x"), CounterNonce("x")
	n1, err := a()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := b()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(n1, n2) {
		t.Error("same label first nonces differ")
	}
	n3, _ := a()
	if bytes.Equal(n1, n3) {
		t.Error("sequential nonces identical")
	}
	if len(n1) != NonceSize {
		t.Errorf("nonce size %d", len(n1))
	}
}

func TestSessionKeysDifferAcrossSessions(t *testing.T) {
	// Two handshakes with different nonces must derive different keys.
	cli1, _, e1, e2 := connect(t, "01", testKeys["01"], testKeys)
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	c, s := pipePair()
	defer c.Close()
	defer s.Close()
	var wg sync.WaitGroup
	var cli2 handshakeResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		cli2.sess, cli2.err = Dial(c, "01", testKeys["01"], CounterNonce("other"))
	}()
	var srvErr error
	go func() {
		defer wg.Done()
		_, srvErr = Accept(s, testKeys, CounterNonce("another"))
	}()
	wg.Wait()
	if cli2.err != nil || srvErr != nil {
		t.Fatal(cli2.err, srvErr)
	}
	if bytes.Equal(cli1.key, cli2.sess.key) {
		t.Error("two sessions derived the same key")
	}
}

func TestKeystoreLookup(t *testing.T) {
	ks := Keystore{"a": []byte("ka")}
	if _, err := ks.Lookup("a"); err != nil {
		t.Error(err)
	}
	if _, err := ks.Lookup("b"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("missing key error %v", err)
	}
}

// TestDerivePSKGolden pins the key derivation: agents and collectors
// from different builds must keep deriving the same key from one seed.
func TestDerivePSKGolden(t *testing.T) {
	const want = "f5a68a9fc225b72d6eacbc25ace65105341f6c935a347ccc04801991d4ef8347"
	if got := hex.EncodeToString(DerivePSK("winter0910", "01")); got != want {
		t.Errorf("DerivePSK(winter0910, 01) = %s, want %s", got, want)
	}
}

func TestVerifyKeyEquality(t *testing.T) {
	if !verifyKeyEquality([]byte("k"), []byte("k")) {
		t.Error("equal keys unequal")
	}
	if verifyKeyEquality([]byte("k"), []byte("K")) {
		t.Error("unequal keys equal")
	}
	if verifyKeyEquality([]byte("k"), []byte("kk")) {
		t.Error("different lengths equal")
	}
}

func BenchmarkSendRecv(b *testing.B) {
	c, s := pipePair()
	defer c.Close()
	defer s.Close()
	var wg sync.WaitGroup
	var cli, srv handshakeResult
	wg.Add(2)
	go func() { defer wg.Done(); cli.sess, cli.err = Dial(c, "01", testKeys["01"], CounterNonce("c")) }()
	go func() { defer wg.Done(); srv.sess, srv.err = Accept(s, testKeys, CounterNonce("s")) }()
	wg.Wait()
	if cli.err != nil || srv.err != nil {
		b.Fatal(cli.err, srv.err)
	}
	payload := bytes.Repeat([]byte("x"), 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	// One sender goroutine: a Session is not safe for concurrent Sends.
	go func() {
		for i := 0; i < b.N; i++ {
			if err := cli.sess.Send(1, payload); err != nil {
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.sess.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// verifyKeyEquality compares two keys through their MACs. It has no
// caller in the program; it stays beside the test that pins it.
func verifyKeyEquality(a, b []byte) bool {
	return len(a) == len(b) && bytes.Equal(mac(a, []byte("eq")), mac(b, []byte("eq")))
}

// TestFrameAllocs pins the framing cost on an in-memory stream: a warm
// Send reuses its MAC and frame buffer, and a warm Recv its MAC and
// receive buffer, so neither allocates.
func TestFrameAllocs(t *testing.T) {
	const runs = 100
	key := []byte("alloc-session-key")
	payload := bytes.Repeat([]byte("x"), 4096)

	sender := newSession(rwShim{}, key, "")
	if got := testing.AllocsPerRun(runs, func() { _ = sender.Send(1, payload) }); got != 0 {
		t.Errorf("Send: %v allocs per frame, want 0", got)
	}

	// AllocsPerRun calls its function once more than runs to warm up.
	var stream bytes.Buffer
	rec := newSession(&stream, key, "")
	for i := 0; i <= runs; i++ {
		if err := rec.Send(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	recv := newSession(rwShim{bytes.NewReader(stream.Bytes())}, key, "")
	var err error
	if got := testing.AllocsPerRun(runs, func() {
		if _, _, e := recv.Recv(); e != nil {
			err = e
		}
	}); got != 0 {
		t.Errorf("Recv: %v allocs per frame, want 0", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestFullDuplex sends frames both ways at once: each side has one
// goroutine sending while another receives, so the two directions' MAC
// state and the send buffer are in use concurrently on one Session.
func TestFullDuplex(t *testing.T) {
	cli, srv, cerr, serr := connect(t, "01", testKeys["01"], testKeys)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v / %v", cerr, serr)
	}
	const frames = 50
	var wg sync.WaitGroup
	for _, s := range []*Session{cli, srv} {
		s := s
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := s.Send(byte(i), bytes.Repeat([]byte{byte(i)}, i*97)); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				ft, p, err := s.Recv()
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				if ft != byte(i) || !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, i*97)) {
					t.Errorf("frame %d: type %d len %d", i, ft, len(p))
				}
			}
		}()
	}
	wg.Wait()
}

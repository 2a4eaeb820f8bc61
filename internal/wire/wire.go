// Package wire is the secure transport of frostlab's monitoring plane. The
// paper moved its measurement data over "public-key authentication through
// an OpenSSH tunnel" (§3.5); wire rebuilds the properties that matter on
// the standard library:
//
//   - mutual authentication by per-host pre-shared keys with an
//     HMAC-SHA256 challenge–response handshake (the stand-in for SSH
//     public-key auth);
//   - a per-session key derived from both nonces, so captured traffic
//     cannot be replayed into another session;
//   - length-prefixed frames, each carrying a monotonically increasing
//     sequence number and an HMAC over (sequence, type, payload), so
//     tampering, truncation, reordering and replay are all detected.
//
// wire runs over any io.ReadWriter — a real net.Conn in cmd/collectord and
// cmd/nodeagent, a net.Pipe in tests, and package monitor's buffered
// in-memory loopback in the in-process experiment.
package wire

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
)

// Protocol limits.
const (
	// MaxFrame bounds a frame payload; sensor bundles are far smaller.
	MaxFrame = 4 << 20
	// NonceSize is the handshake nonce length.
	NonceSize = 32
	macSize   = sha256.Size
)

// Frame types are application-defined; wire reserves none.

// Errors returned by the package.
var (
	ErrAuth        = errors.New("wire: authentication failed")
	ErrTampered    = errors.New("wire: frame MAC mismatch")
	ErrTooLarge    = errors.New("wire: frame exceeds MaxFrame")
	ErrUnknownPeer = errors.New("wire: unknown peer")
)

// Keystore resolves a peer name to its pre-shared key. The zero map is a
// valid empty store.
type Keystore map[string][]byte

// Lookup returns the key for a peer.
func (ks Keystore) Lookup(peer string) ([]byte, error) {
	k, ok := ks[peer]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, peer)
	}
	return k, nil
}

// DerivePSK derives a host's pre-shared key from a deployment seed as
// SHA-256(keyseed "/psk/" hostID). Node agents and collectors that share
// the seed agree on every host's key without a keystore file.
func DerivePSK(keyseed, hostID string) []byte {
	sum := sha256.Sum256([]byte(keyseed + "/psk/" + hostID))
	return sum[:]
}

// Session is an authenticated, integrity-protected frame stream. Create
// one with Dial (client side) or Accept (server side).
//
// A Session keeps per-direction MAC state and reused send and receive
// buffers, so one goroutine may Send while another Recvs, but two
// goroutines must never Send at once, nor Recv at once, on the same
// Session.
type Session struct {
	rw      io.ReadWriter
	key     []byte // session key
	peer    string
	sendSeq uint64
	recvSeq uint64

	// Each direction keeps one HMAC keyed with the session key and resets
	// it per frame, so a frame costs no MAC setup. The scratch arrays are
	// the MAC's (sequence, type) prefix and the received header and tag;
	// living in the Session, they cost no allocation per frame.
	sendMAC, recvMAC hash.Hash
	sendPre, recvPre [9]byte
	recvHdr          [5]byte
	recvSum          [macSize]byte
	// sendBuf holds the last frame sent (header | payload | tag), so each
	// frame goes out in one Write.
	sendBuf []byte
	// recvBuf holds the last frame received (payload | tag); Recv's
	// payload is a view of it.
	recvBuf []byte
}

func newSession(rw io.ReadWriter, key []byte, peer string) *Session {
	return &Session{
		rw:      rw,
		key:     key,
		peer:    peer,
		sendMAC: hmac.New(sha256.New, key),
		recvMAC: hmac.New(sha256.New, key),
	}
}

// frameMAC resets m and appends to dst the tag over (seq, frameType,
// payload), using pre as scratch for the first two.
func frameMAC(dst []byte, m hash.Hash, pre *[9]byte, seq uint64, frameType byte, payload []byte) []byte {
	binary.BigEndian.PutUint64(pre[:8], seq)
	pre[8] = frameType
	m.Reset()
	m.Write(pre[:])
	m.Write(payload)
	return m.Sum(dst)
}

func mac(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// sessionKey derives the per-session key from the pre-shared key and both
// nonces.
func sessionKey(psk, clientNonce, serverNonce []byte) []byte {
	return mac(psk, []byte("frostlab-session-v1"), clientNonce, serverNonce)
}

// Nonce is a function producing NonceSize random bytes. Deterministic
// tests and simulations inject their own; production passes
// crypto/rand.Read-backed nonces.
type Nonce func() ([]byte, error)

// Dial performs the client side of the handshake over rw, identifying as
// hostID with the given pre-shared key.
func Dial(rw io.ReadWriter, hostID string, psk []byte, nonce Nonce) (*Session, error) {
	cn, err := nonce()
	if err != nil {
		return nil, fmt.Errorf("wire: generating nonce: %w", err)
	}
	if len(cn) != NonceSize {
		return nil, fmt.Errorf("wire: nonce length %d, want %d", len(cn), NonceSize)
	}
	// -> hello: hostID, clientNonce
	if err := writeBlob(rw, []byte(hostID)); err != nil {
		return nil, err
	}
	if err := writeBlob(rw, cn); err != nil {
		return nil, err
	}
	// <- serverNonce, proof = HMAC(psk, "srv", cn, sn)
	sn, err := readBlob(rw, NonceSize)
	if err != nil {
		return nil, err
	}
	srvProof, err := readBlob(rw, macSize)
	if err != nil {
		return nil, err
	}
	if !hmac.Equal(srvProof, mac(psk, []byte("srv"), cn, sn)) {
		return nil, fmt.Errorf("%w: server proof invalid", ErrAuth)
	}
	// -> proof = HMAC(psk, "cli", sn, cn)
	if err := writeBlob(rw, mac(psk, []byte("cli"), sn, cn)); err != nil {
		return nil, err
	}
	return newSession(rw, sessionKey(psk, cn, sn), "server"), nil
}

// Accept performs the server side of the handshake, authenticating the
// client against the keystore.
func Accept(rw io.ReadWriter, keys Keystore, nonce Nonce) (*Session, error) {
	hostID, err := readBlob(rw, 256)
	if err != nil {
		return nil, err
	}
	cn, err := readBlob(rw, NonceSize)
	if err != nil {
		return nil, err
	}
	psk, err := keys.Lookup(string(hostID))
	if err != nil {
		return nil, err
	}
	sn, err := nonce()
	if err != nil {
		return nil, fmt.Errorf("wire: generating nonce: %w", err)
	}
	if len(sn) != NonceSize {
		return nil, fmt.Errorf("wire: nonce length %d, want %d", len(sn), NonceSize)
	}
	if err := writeBlob(rw, sn); err != nil {
		return nil, err
	}
	if err := writeBlob(rw, mac(psk, []byte("srv"), cn, sn)); err != nil {
		return nil, err
	}
	cliProof, err := readBlob(rw, macSize)
	if err != nil {
		return nil, err
	}
	if !hmac.Equal(cliProof, mac(psk, []byte("cli"), sn, cn)) {
		return nil, fmt.Errorf("%w: client proof invalid for %q", ErrAuth, hostID)
	}
	return newSession(rw, sessionKey(psk, cn, sn), string(hostID)), nil
}

// Send transmits one frame of the given application type: header
// (length, type), payload and tag, in one Write.
func (s *Session) Send(frameType byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	n := len(payload)
	if cap(s.sendBuf) < 5+n+macSize {
		s.sendBuf = make([]byte, 0, 5+n+macSize)
	}
	frame := s.sendBuf[:5+n]
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	frame[4] = frameType
	copy(frame[5:], payload)
	frame = frameMAC(frame, s.sendMAC, &s.sendPre, s.sendSeq, frameType, payload)
	if _, err := s.rw.Write(frame); err != nil {
		return err
	}
	s.sendSeq++
	return nil
}

// Recv reads and verifies one frame, returning its type and payload. The
// payload is a view of a buffer the Session reuses: it is valid until the
// next Recv on the Session, and a caller that keeps it longer must copy
// it. Its capacity ends at its length, so an append to it copies rather
// than overwrite the tag.
func (s *Session) Recv() (byte, []byte, error) {
	if _, err := io.ReadFull(s.rw, s.recvHdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(s.recvHdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: header claims %d bytes", ErrTooLarge, n)
	}
	frameType := s.recvHdr[4]
	need := int(n) + macSize
	s.recvBuf = slices.Grow(s.recvBuf[:0], need)
	body := s.recvBuf[:need]
	if _, err := io.ReadFull(s.rw, body); err != nil {
		return 0, nil, err
	}
	payload, tag := body[:n:n], body[n:]
	if !hmac.Equal(tag, frameMAC(s.recvSum[:0], s.recvMAC, &s.recvPre, s.recvSeq, frameType, payload)) {
		return 0, nil, ErrTampered
	}
	s.recvSeq++
	return frameType, payload, nil
}

// writeBlob writes a 2-byte length-prefixed byte string.
func writeBlob(w io.Writer, p []byte) error {
	if len(p) > 0xffff {
		return fmt.Errorf("wire: blob of %d bytes too large", len(p))
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(p)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

// readBlob reads a length-prefixed byte string of at most max bytes.
func readBlob(r io.Reader, max int) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("wire: blob of %d bytes exceeds limit %d", n, max)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// CounterNonce returns a deterministic Nonce for simulations and tests: an
// incrementing counter hashed with the label. Production code should pass
// a crypto/rand-backed Nonce instead.
func CounterNonce(label string) Nonce {
	var ctr uint64
	return func() ([]byte, error) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], ctr)
		ctr++
		sum := sha256.Sum256(append([]byte(label), b[:]...))
		return sum[:], nil
	}
}

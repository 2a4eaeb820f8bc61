package wire

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"net"
	"sync"
	"testing"
)

// recordConn tees every byte written through it.
type recordConn struct {
	net.Conn
	out bytes.Buffer
}

func (r *recordConn) Write(p []byte) (int, error) {
	r.out.Write(p)
	return r.Conn.Write(p)
}

// goldenPayload is a deterministic payload of n bytes for frame i.
func goldenPayload(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + j*7)
	}
	return p
}

// TestWireFormatGolden pins every byte each side writes during a
// CounterNonce handshake and an exchange of frames of mixed sizes, so a
// change to how frames are built or written cannot change what reaches the
// wire: agents and collectors from different builds must keep talking.
func TestWireFormatGolden(t *testing.T) {
	const (
		wantClient = "9ec8782f6945e0f99964f83692d1d571"
		wantServer = "3f4381a6b2380ac2c6e2b5407aabae62"
	)
	c, s := pipePair()
	defer c.Close()
	defer s.Close()
	rc, rs := &recordConn{Conn: c}, &recordConn{Conn: s}
	sizes := []int{0, 1, 37, 4096, 70000}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer c.Close() // unblock the peer on any early return
		sess, err := Dial(rc, "01", testKeys["01"], CounterNonce("cli"))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i, n := range sizes {
			if err := sess.Send(byte(i), goldenPayload(i, n)); err != nil {
				t.Errorf("client send %d: %v", i, err)
				return
			}
			ft, got, err := sess.Recv()
			if err != nil {
				t.Errorf("client recv %d: %v", i, err)
				return
			}
			if ft != byte(100+i) || !bytes.Equal(got, goldenPayload(i, n)[:n/2]) {
				t.Errorf("client frame %d: type %d len %d", i, ft, len(got))
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer s.Close()
		sess, err := Accept(rs, testKeys, CounterNonce("srv"))
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for i, n := range sizes {
			ft, got, err := sess.Recv()
			if err != nil {
				t.Errorf("server recv %d: %v", i, err)
				return
			}
			if ft != byte(i) || !bytes.Equal(got, goldenPayload(i, n)) {
				t.Errorf("server frame %d: type %d len %d", i, ft, len(got))
			}
			if err := sess.Send(byte(100+i), got[:n/2]); err != nil {
				t.Errorf("server send %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	sum := func(b []byte) string { h := md5.Sum(b); return hex.EncodeToString(h[:]) }
	if got := sum(rc.out.Bytes()); got != wantClient {
		t.Errorf("client wrote %d bytes, md5 %s, want %s", rc.out.Len(), got, wantClient)
	}
	if got := sum(rs.out.Bytes()); got != wantServer {
		t.Errorf("server wrote %d bytes, md5 %s, want %s", rs.out.Len(), got, wantServer)
	}
}

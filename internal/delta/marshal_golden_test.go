package delta

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// goldenCase is one (old, new) pair whose delta's wire bytes are pinned.
type goldenCase struct {
	name     string
	old, new []byte
	bs       int
	want     string // md5 of Marshal's output
}

// goldenCases returns hand cases (empty, literal-only, copy runs, mixed)
// and seeded random edits of one base file.
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewSource(7))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	base := bytesOf(20 << 10)
	edited := append([]byte(nil), base...)
	copy(edited[9<<10:], "EDITED IN THE MIDDLE")
	edited = append(edited, bytesOf(777)...)
	shuffled := append(append(append([]byte(nil), base[8<<10:12<<10]...), base[:4<<10]...), bytesOf(100)...)
	appended := append(append([]byte(nil), base...), bytesOf(1500)...)

	cases := []goldenCase{
		{"empty", nil, nil, 1024, "2ddf95ac5db61240f62c562d8dfc58a5"},
		{"empty-new", base, nil, 2048, "522e621c39929fe0a62e4b910445fef8"},
		{"literal-only", nil, bytesOf(3000), 1024, "131daa70a16ffbef754f01bca110b3ef"},
		{"copy-runs", base, base, 1024, "543103da4485dc5ca46b5b57c263e1ea"},
		{"append", base, appended, 2048, "9cb8b9cd693fc07df0a8017f56ec9c5d"},
		{"mixed", base, edited, 1024, "190ec8a0e5c85c9e4ca85f3a37ee9d96"},
		{"shuffled", base, shuffled, 2048, "d9e4a18070042cdecf85d2de9cae0e48"},
	}
	seeded := []string{
		"576726f0d163affb665981842ffb6fe2",
		"c7b1732eaf15a3823857fcd6bb576403",
		"dc6fa23663d33c975b5b21499cdea614",
		"9aafb26d6d471114935524d37c1ace75",
	}
	// Seeded random edits: overwrite, insert and delete runs.
	for i, want := range seeded {
		seed := int64(i + 1)
		r := rand.New(rand.NewSource(seed))
		cur := append([]byte(nil), base...)
		for k := 0; k < 6; k++ {
			at := r.Intn(len(cur))
			run := make([]byte, r.Intn(300)+1)
			r.Read(run)
			switch r.Intn(3) {
			case 0:
				copy(cur[at:], run)
			case 1:
				cur = append(cur[:at], append(run, cur[at:]...)...)
			default:
				end := at + len(run)
				if end > len(cur) {
					end = len(cur)
				}
				cur = append(cur[:at], cur[end:]...)
			}
		}
		cases = append(cases, goldenCase{fmt.Sprintf("seed-%d", seed), base, cur, 512 << (seed % 3), want})
	}
	return cases
}

// TestMarshalGolden pins the wire bytes of Marshal over Compute's deltas,
// so a change to how deltas are built or serialised cannot move a single
// byte the collector receives.
func TestMarshalGolden(t *testing.T) {
	for _, c := range goldenCases() {
		sig, err := NewSignature(c.old, c.bs)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Compute(sig, c.new, md5.Sum(c.new))
		if err != nil {
			t.Fatal(err)
		}
		sum := md5.Sum(d.Marshal())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Marshal md5 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAppendMarshal checks that AppendMarshal writes Marshal's bytes after
// dst's, into one buffer of the exact size when dst lacks the room and in
// place when it has it, and that the result shares no memory with the
// delta even though the delta's literals alias the decoded payload.
func TestAppendMarshal(t *testing.T) {
	for _, c := range goldenCases() {
		sig, err := NewSignature(c.old, c.bs)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Compute(sig, c.new, md5.Sum(c.new))
		if err != nil {
			t.Fatal(err)
		}
		want := d.Marshal()
		got := d.AppendMarshal([]byte("hdr"))
		if !bytes.Equal(got[3:], want) || string(got[:3]) != "hdr" {
			t.Errorf("%s: AppendMarshal differs from the header and Marshal", c.name)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: AppendMarshal buffer of cap %d for %d bytes", c.name, cap(got), len(got))
		}
		room := make([]byte, 1, 1+len(want))
		if out := d.AppendMarshal(room); &out[0] != &room[0] {
			t.Errorf("%s: AppendMarshal reallocated a buffer with room", c.name)
		}

		payload := d.Marshal()
		back, err := UnmarshalDelta(payload)
		if err != nil {
			t.Fatal(err)
		}
		again := back.AppendMarshal(nil)
		for i := range payload {
			payload[i] ^= 0xff // back's literals alias payload; again must not
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: UnmarshalDelta then AppendMarshal differs", c.name)
		}
	}
}

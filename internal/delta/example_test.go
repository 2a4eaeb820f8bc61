package delta_test

import (
	"bytes"
	"crypto/md5"
	"fmt"

	"frostlab/internal/delta"
)

// The §3.5 monitoring use case: an append-only sensor log re-synced each
// round. Only the appended tail travels.
func ExampleSync() {
	old := bytes.Repeat([]byte("2010-02-19T12:00:00Z cpu=-4.1\n"), 1000)
	updated := append(append([]byte(nil), old...),
		[]byte("2010-02-19T12:15:00Z cpu=-4.3\n")...)

	got, literalBytes, err := delta.Sync(old, updated, delta.DefaultBlockSize)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("reconstructed %v bytes correctly: %v\n", len(got), bytes.Equal(got, updated))
	fmt.Printf("full copy would move %d bytes; the delta moved %d\n", len(updated), literalBytes)
	// Output:
	// reconstructed 30030 bytes correctly: true
	// full copy would move 30030 bytes; the delta moved 1358
}

// The three-step protocol as it runs over the wire: the receiver
// signs its old copy, the sender computes a delta, the receiver patches.
func ExampleCompute() {
	receiverCopy := []byte("the quick brown fox jumps over the lazy dog")
	senderFile := []byte("the quick brown fox jumps over the lazy dog, twice")

	sig, _ := delta.NewSignature(receiverCopy, 16)
	d, _ := delta.Compute(sig, senderFile, md5.Sum(senderFile))
	var old delta.Running // the receiver's summary of its own copy
	old.Write(receiverCopy)
	patched, _ := delta.Apply(nil, receiverCopy, d, &old)
	fmt.Println(string(patched))
	// Output:
	// the quick brown fox jumps over the lazy dog, twice
}

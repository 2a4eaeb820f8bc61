package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

func TestKeystoreRoundTrip(t *testing.T) {
	ks := Keystore{
		"01":  []byte("key-one"),
		"02":  []byte{0x00, 0xff, 0x10},
		"c01": []byte("control-twin"),
	}
	var buf bytes.Buffer
	if err := ks.save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadKeystore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ks) {
		t.Fatalf("round trip %d entries, want %d", len(back), len(ks))
	}
	for id, key := range ks {
		got, err := back.Lookup(id)
		if err != nil {
			t.Fatalf("lookup %s: %v", id, err)
		}
		if !bytes.Equal(got, key) {
			t.Errorf("key for %s differs", id)
		}
	}
}

func TestKeystoreSaveSortedWithHeader(t *testing.T) {
	ks := Keystore{"b": []byte("x"), "a": []byte("y")}
	var buf bytes.Buffer
	if err := ks.save(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "#") {
		t.Error("missing comment header")
	}
	if !strings.HasPrefix(lines[1], "a ") || !strings.HasPrefix(lines[2], "b ") {
		t.Errorf("entries not sorted: %v", lines)
	}
}

func TestLoadKeystoreCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n01 6b6579\n   \n# more\n02 00ff\n"
	ks, err := LoadKeystore(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 {
		t.Fatalf("entries %d, want 2", len(ks))
	}
	if k, _ := ks.Lookup("01"); string(k) != "key" {
		t.Errorf("decoded key %q", k)
	}
}

func TestLoadKeystoreRejectsMalformed(t *testing.T) {
	bad := []string{
		"justanid\n",
		"01 not-hex\n",
		"01 \n",
		" 6b6579\n",
		"01 6b6579\n01 6b6579\n", // duplicate
	}
	for _, in := range bad {
		if _, err := LoadKeystore(strings.NewReader(in)); err == nil {
			t.Errorf("malformed keystore %q accepted", in)
		}
	}
}

func TestSaveRejectsWhitespaceID(t *testing.T) {
	ks := Keystore{"bad id": []byte("k")}
	if err := ks.save(&bytes.Buffer{}); err == nil {
		t.Error("whitespace id accepted")
	}
}

// save writes the keystore in the load format: the inverse of
// LoadKeystore that the round-trip tests read back with.
func (ks Keystore) save(w io.Writer) error {
	ids := make([]string, 0, len(ks))
	for id := range ks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# frostlab monitoring keystore: hostID hexkey")
	for _, id := range ids {
		if strings.ContainsAny(id, " \n") {
			return fmt.Errorf("wire: host id %q contains whitespace", id)
		}
		fmt.Fprintf(bw, "%s %s\n", id, hex.EncodeToString(ks[id]))
	}
	return bw.Flush()
}

package wire

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// Keystore file format: one "hostID hexkey" pair per line, '#' comments
// and blank lines ignored. This is the operational glue for the real
// daemons (cmd/collectord, cmd/nodeagent), standing in for the paper's
// authorized_keys distribution.

// LoadKeystore parses a keystore from r.
func LoadKeystore(r io.Reader) (Keystore, error) {
	ks := Keystore{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, hexKey, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("wire: keystore line %d: want \"hostID hexkey\"", line)
		}
		id = strings.TrimSpace(id)
		key, err := hex.DecodeString(strings.TrimSpace(hexKey))
		if err != nil {
			return nil, fmt.Errorf("wire: keystore line %d: %w", line, err)
		}
		if id == "" || len(key) == 0 {
			return nil, fmt.Errorf("wire: keystore line %d: empty id or key", line)
		}
		if _, dup := ks[id]; dup {
			return nil, fmt.Errorf("wire: keystore line %d: duplicate id %q", line, id)
		}
		ks[id] = key
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ks, nil
}

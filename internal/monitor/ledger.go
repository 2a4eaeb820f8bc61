package monitor

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"time"
)

// LedgerSummary is what the monitoring host learns from one mirrored
// md5sums.log: the §3.5 loop exists precisely so these counts can be
// derived centrally without touching the machines.
type LedgerSummary struct {
	OK  int
	Bad int
	// Errors counts pipeline-error lines (should be zero).
	Errors int
	// FirstAt and LastAt bound the ledger's cycle timestamps.
	FirstAt, LastAt time.Time
}

// ParseLedger reads an md5sums.log as written by the experiment's workload
// cycle: lines of "<RFC3339> OK <md5>" or "<RFC3339> BAD <md5> ...", with
// "ERROR ..." lines for pipeline faults.
func ParseLedger(data []byte) (LedgerSummary, error) {
	var sum LedgerSummary
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "ERROR") {
			sum.Errors++
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return sum, fmt.Errorf("monitor: ledger line %d malformed: %q", lineNo, line)
		}
		at, err := time.Parse(time.RFC3339, fields[0])
		if err != nil {
			return sum, fmt.Errorf("monitor: ledger line %d timestamp: %w", lineNo, err)
		}
		switch fields[1] {
		case "OK":
			sum.OK++
		case "BAD":
			sum.Bad++
		default:
			return sum, fmt.Errorf("monitor: ledger line %d has status %q", lineNo, fields[1])
		}
		if len(fields[2]) != 32 {
			return sum, fmt.Errorf("monitor: ledger line %d digest %q not 32 hex chars", lineNo, fields[2])
		}
		if sum.FirstAt.IsZero() || at.Before(sum.FirstAt) {
			sum.FirstAt = at
		}
		if at.After(sum.LastAt) {
			sum.LastAt = at
		}
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	return sum, nil
}

package monitor

import (
	"strings"
	"testing"
	"time"
)

const sampleLedger = `2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e
2010-02-19T12:20:00Z OK d41d8cd98f00b204e9800998ecf8427e
2010-02-19T12:30:00Z BAD 900150983cd24fb0d6963f7d28e17f72 (bad blocks [3] of 20)
2010-02-19T12:40:00Z OK d41d8cd98f00b204e9800998ecf8427e
`

func TestParseLedger(t *testing.T) {
	sum, err := ParseLedger([]byte(sampleLedger))
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 3 || sum.Bad != 1 || sum.Errors != 0 {
		t.Errorf("counts %+v", sum)
	}
	if ledgerTotal(sum) != 4 {
		t.Errorf("total %d", ledgerTotal(sum))
	}
	wantFirst := time.Date(2010, 2, 19, 12, 10, 0, 0, time.UTC)
	wantLast := time.Date(2010, 2, 19, 12, 40, 0, 0, time.UTC)
	if !sum.FirstAt.Equal(wantFirst) || !sum.LastAt.Equal(wantLast) {
		t.Errorf("bounds %v .. %v", sum.FirstAt, sum.LastAt)
	}
}

func TestParseLedgerEmpty(t *testing.T) {
	sum, err := ParseLedger(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ledgerTotal(sum) != 0 {
		t.Errorf("empty ledger total %d", ledgerTotal(sum))
	}
}

func TestParseLedgerErrorLines(t *testing.T) {
	sum, err := ParseLedger([]byte("ERROR pack failed: boom\n" + sampleLedger))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 || sum.OK != 3 {
		t.Errorf("counts %+v", sum)
	}
}

func TestParseLedgerRejectsMalformed(t *testing.T) {
	bad := []string{
		"not a ledger line\n",
		"2010-02-19T12:10:00Z MAYBE d41d8cd98f00b204e9800998ecf8427e\n",
		"yesterday OK d41d8cd98f00b204e9800998ecf8427e\n",
		"2010-02-19T12:10:00Z OK shorthash\n",
	}
	for _, in := range bad {
		if _, err := ParseLedger([]byte(in)); err == nil {
			t.Errorf("malformed ledger %q accepted", strings.TrimSpace(in))
		}
	}
}

// ledgerTotal returns all accounted cycles of a ledger summary.
func ledgerTotal(l LedgerSummary) int { return l.OK + l.Bad + l.Errors }

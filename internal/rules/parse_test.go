package rules

import (
	"strings"
	"testing"
	"time"

	"frostlab/internal/units"
)

func TestParseFullGrammar(t *testing.T) {
	set, err := Parse([]byte(`
# comment line
envelope low=5 high=28 dew=15 rhmax=80

record cpu_rate rate(01/cpu,10m)
alert hot value($tent_temp) > 30 for 15m severity page
alert stale absent(*/cpu,45m) for 20m
alert condensing dewpoint_margin($tent_temp,$tent_rh,$surface) < 1
alert out outside_envelope($tent_temp,$tent_rh) severity warn
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if set.Envelope.TempLow != 5 || set.Envelope.TempHigh != 28 ||
		set.Envelope.DewPointMax != 15 || set.Envelope.RHMax != 80 {
		t.Fatalf("envelope = %+v", set.Envelope)
	}
	if len(set.Rules) != 5 {
		t.Fatalf("got %d rules", len(set.Rules))
	}
	rec := set.Rules[0]
	if rec.Kind != KindRecord || rec.Fn != FnRate || rec.Window != 10*time.Minute ||
		rec.Args[0].Name != "01/cpu" || rec.Args[0].Live || rec.Args[0].Wild {
		t.Fatalf("record rule = %+v", rec)
	}
	hot := set.Rules[1]
	if hot.Kind != KindAlert || hot.Cmp != CmpGT || hot.Threshold != 30 ||
		hot.For != 15*time.Minute || hot.Severity != "page" ||
		!hot.Args[0].Live || hot.Args[0].Name != "tent_temp" {
		t.Fatalf("alert rule = %+v", hot)
	}
	stale := set.Rules[2]
	if !stale.Args[0].Wild || stale.Args[0].wildSuffix() != "cpu" || stale.Severity != "warn" {
		t.Fatalf("wildcard rule = %+v", stale)
	}
	if got := len(set.Rules[3].Args); got != 3 {
		t.Fatalf("dewpoint_margin args = %d", got)
	}
}

func TestParseDefaultsEnvelopeToFrost(t *testing.T) {
	set := MustParse("alert x value($v) > 1\n")
	if set.Envelope != units.FrostAllowable {
		t.Fatalf("default envelope = %+v", set.Envelope)
	}
}

func TestParseRejects(t *testing.T) {
	for _, src := range []string{
		"frob x value($v) > 1",                         // unknown directive
		"alert x frobnicate($v) > 1",                   // unknown function
		"alert x value($v)",                            // numeric alert without cmp
		"alert x absent(a/cpu,10m) > 1",                // boolean with cmp
		"record x value($v) > 1",                       // record with cmp
		"record x value($v) for 10m",                   // record with for
		"alert x value($v) > notanumber",               // bad threshold
		"alert x value($v) > 1 for soon",               // bad duration
		"alert x rate(a/cpu) > 1",                      // missing window
		"alert x value(a*,10m) > 1",                    // bad wildcard form
		"alert x value(*/a,*/b) > 1",                   // wrong arity
		"alert bad!name value($v) > 1",                 // bad rule name
		"alert x value($v) > 1 unexpected",             // trailing tokens
		"alert x value($v) > 1\nalert x value($v) > 2", // duplicate name
		"envelope low=30 high=2",                       // inverted envelope
		"envelope frob=1",                              // unknown envelope key
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestDefaultRuleSetParses(t *testing.T) {
	set := Default()
	if len(set.Rules) < 6 {
		t.Fatalf("default ruleset has only %d rules", len(set.Rules))
	}
	names := map[string]bool{}
	for _, r := range set.Rules {
		names[r.Name] = true
	}
	for _, want := range []string{"sensor_stale", "coverage_drop", "ingest_shed",
		"breaker_open", "envelope_violation", "dewpoint_margin_low"} {
		if !names[want] {
			t.Errorf("default ruleset missing %q", want)
		}
	}
}

func TestRuleStringRoundTrips(t *testing.T) {
	set := Default()
	var b strings.Builder
	for i := range set.Rules {
		b.WriteString(set.Rules[i].String())
		b.WriteByte('\n')
	}
	again, err := Parse([]byte(b.String()))
	if err != nil {
		t.Fatalf("reparse of canonical form: %v\n%s", err, b.String())
	}
	if len(again.Rules) != len(set.Rules) {
		t.Fatalf("reparse kept %d of %d rules", len(again.Rules), len(set.Rules))
	}
	for i := range set.Rules {
		if got, want := again.Rules[i].String(), set.Rules[i].String(); got != want {
			t.Errorf("rule %d not canonical: %q != %q", i, got, want)
		}
	}
}

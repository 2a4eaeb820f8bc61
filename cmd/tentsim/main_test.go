package main

import (
	"context"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stdout, or of the error when wantErr
		// wantErr marks a row that must fail.
		wantErr bool
	}{
		{[]string{"-days", "1", "-mods", "RIBF"}, `mean ΔT over 1 days at 1400 W with mods "RIBF"`, false},
		{[]string{"-days", "1", "-power", "NaN"}, "-power must be a finite, non-negative number", true},
		{[]string{"-days", "1", "-power", "+Inf"}, "-power must be a finite, non-negative number", true},
		{[]string{"-days", "1", "-power", "-1"}, "-power must be a finite, non-negative number", true},
		{[]string{"-days", "1", "-power", "1e308"}, "overflows", true},
		{[]string{"-days", "0"}, "-days must be positive", true},
		{[]string{"-days", "1", "-mods", "RX"}, `unknown modification "X"`, true},
	} {
		var out strings.Builder
		err := run(context.Background(), tc.args, &out)
		got := out.String()
		if tc.wantErr {
			if err == nil {
				t.Errorf("run(%q) succeeded:\n%s", tc.args, got)
				continue
			}
			got = err.Error()
		} else if err != nil {
			t.Errorf("run(%q): %v", tc.args, err)
			continue
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("run(%q): %q not in\n%s", tc.args, tc.want, got)
		}
	}
}

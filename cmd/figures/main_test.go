package main

import (
	"strings"
	"testing"
)

func TestUnknownIDRejected(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-id", "fig9"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown artefact id "fig9"`) {
		t.Fatalf("run(-id fig9) = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("unknown id printed %q", out.String())
	}
}

func TestRunlessIDsRender(t *testing.T) {
	for _, id := range []string{"fig1", "PUE"} {
		var out strings.Builder
		if err := run([]string{"-id", id}, &out); err != nil {
			t.Fatalf("-id %s: %v", id, err)
		}
		if out.Len() == 0 {
			t.Errorf("-id %s printed nothing", id)
		}
	}
}

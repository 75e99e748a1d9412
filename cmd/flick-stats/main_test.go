package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTraceOutput pins the -trace levels: 0 prints only failures (none
// in a clean run), 1 prints every call's client and server spans with
// operation and xid, and 2 adds truncated hex dumps of the wire.
func TestTraceOutput(t *testing.T) {
	var quiet bytes.Buffer
	if _, _, err := run(2, 512, 0, &quiet); err != nil {
		t.Fatal(err)
	}
	if quiet.Len() != 0 {
		t.Errorf("level 0 printed spans for a clean run:\n%s", quiet.String())
	}

	var all bytes.Buffer
	cm, sm, err := run(2, 512, 1, &all)
	if err != nil {
		t.Fatal(err)
	}
	out := all.String()
	for _, want := range []string{"call sum xid=", "attempt sum xid=", "dispatch sum xid=", "call ping xid="} {
		if !strings.Contains(out, want) {
			t.Errorf("level 1 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wire (") {
		t.Errorf("level 1 printed wire dumps:\n%s", out)
	}
	if cm.Op("sum").Calls.Load() != 2 || sm.Op("sum").Calls.Load() != 2 {
		t.Errorf("metrics saw %d client / %d server sum calls, want 2 each",
			cm.Op("sum").Calls.Load(), sm.Op("sum").Calls.Load())
	}

	var wire bytes.Buffer
	if _, _, err := run(1, 512, 2, &wire); err != nil {
		t.Fatal(err)
	}
	out = wire.String()
	for _, want := range []string{"send wire (", "recv wire (", "bytes truncated", "call sum xid="} {
		if !strings.Contains(out, want) {
			t.Errorf("level 2 output missing %q:\n%s", want, out)
		}
	}
}

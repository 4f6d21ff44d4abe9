package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// setFlags sets command-line flags for one test and restores their
// previous values when it ends.
func setFlags(t *testing.T, values map[string]string) {
	t.Helper()
	for name, v := range values {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
		old := f.Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
	}
}

// TestRunEventTraceExitCodes pins the exit status around the -events
// trace: a sweep that succeeds with its trace written exits 0, one that
// succeeds but loses its trace exits 3, and one whose result cannot
// be written exits 1 even when its trace is lost too.
func TestRunEventTraceExitCodes(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail trace writes")
	}
	for _, tc := range []struct {
		name   string
		events string
		out    string
		want   int
	}{
		{"trace written", "trace.jsonl", "sweep.json", 0},
		{"trace lost", "/dev/full", "sweep.json", 3},
		{"write failed, trace lost", "/dev/full", "missing/sweep.json", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			events := tc.events
			if !filepath.IsAbs(events) {
				events = filepath.Join(dir, events)
			}
			setFlags(t, map[string]string{
				"matrix":  "engines=bing",
				"seeds":   "1",
				"queries": "2",
				"quiet":   "true",
				"events":  events,
				"out":     filepath.Join(dir, tc.out),
			})
			if got := run(); got != tc.want {
				t.Fatalf("run() = %d, want %d", got, tc.want)
			}
			if tc.want == 0 {
				if info, err := os.Stat(events); err != nil || info.Size() == 0 {
					t.Fatalf("event trace not written: %v", err)
				}
			}
		})
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPrintAndExit(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-n", "3", "-m", "16", "-print-and-exit"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "listening on 127.0.0.1:") {
		t.Fatalf("no listen line:\n%s", got)
	}
	if strings.Count(got, "player ") != 3 {
		t.Fatalf("want 3 token lines:\n%s", got)
	}
	if !strings.Contains(got, "players 3, objects 16") {
		t.Fatalf("config line missing:\n%s", got)
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "1", "-m", "0", "-print-and-exit"}, &out); err == nil {
		t.Fatal("m=0 accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999", "-print-and-exit"}, &out); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestMetricsAddrFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-n", "2", "-m", "16", "-metrics-addr", "127.0.0.1:0", "-print-and-exit"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "metrics on http://127.0.0.1:") {
		t.Fatalf("metrics endpoint line missing:\n%s", out.String())
	}
	// Disabled by default: no endpoint line without the flag.
	out.Reset()
	if err := run([]string{"-n", "2", "-m", "16", "-print-and-exit"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "metrics on") {
		t.Fatalf("metrics endpoint unexpectedly enabled:\n%s", out.String())
	}
	// An unbindable metrics address is an error, not a silent skip.
	if err := run([]string{"-metrics-addr", "256.0.0.1:99999", "-print-and-exit"}, &out); err == nil {
		t.Fatal("bad metrics address accepted")
	}
}

func TestPersistDirFlag(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	var out strings.Builder
	err := run([]string{"-n", "2", "-m", "16", "-persist-dir", dir, "-print-and-exit"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "durable mode: persist dir "+dir) ||
		!strings.Contains(out.String(), "fsync commit") {
		t.Fatalf("durable-mode line missing:\n%s", out.String())
	}
	// The store materialized on disk (segment-0 wal).
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); err != nil {
		t.Fatalf("persist dir has no wal: %v", err)
	}
	// A second run recovers from the same directory without complaint.
	out.Reset()
	if err := run([]string{"-n", "2", "-m", "16", "-persist-dir", dir, "-print-and-exit"}, &out); err != nil {
		t.Fatalf("restart from persist dir: %v", err)
	}

	// -persist-dir is the only durability flag, and a malformed fsync
	// policy fails loudly.
	if err := run([]string{"-journal", "x.log", "-print-and-exit"}, &out); err == nil {
		t.Fatal("removed -journal flag accepted")
	}
	if err := run([]string{"-persist-dir", dir, "-fsync", "eventually", "-print-and-exit"}, &out); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
}

func TestFaultToleranceFlags(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-n", "2", "-m", "16",
		"-session-grace", "5s", "-barrier-deadline", "250ms",
		"-print-and-exit",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "session grace 5s, barrier deadline 250ms") {
		t.Fatalf("fault-tolerance config line missing:\n%s", out.String())
	}
	if err := run([]string{"-session-grace", "banana", "-print-and-exit"}, &out); err == nil {
		t.Fatal("unparseable duration accepted")
	}
}

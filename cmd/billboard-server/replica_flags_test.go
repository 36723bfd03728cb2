package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
)

// replicaCode runs the flag set and returns the ReplicaConfigError code
// ("" if the run succeeded or failed with a non-config error).
func replicaCode(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	if err == nil {
		return ""
	}
	var ce *server.ReplicaConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("run(%v) = %v, want *ReplicaConfigError", args, err)
	}
	return ce.Code
}

func TestReplicaFlagValidation(t *testing.T) {
	dir := t.TempDir()
	base := func(extra ...string) []string {
		return append([]string{
			"-n", "2", "-m", "16", "-print-and-exit",
			"-persist-dir", filepath.Join(dir, fmt.Sprintf("d%d", len(extra))),
		}, extra...)
	}
	cases := []struct {
		name string
		args []string
		code string
	}{
		{"replica flags without -replicas", base("-replica-id", "1"), "missing-replicas"},
		{"replicas without persist dir", []string{
			"-n", "2", "-m", "16", "-print-and-exit",
			"-replicas", "3", "-replica-peers", "a,b,c", "-replica-client-addrs", "x,y,z",
		}, "missing-dir"},
		{"empty peer list", base("-replicas", "3"), "empty-group"},
		{"peer count mismatch", base("-replicas", "3", "-replica-peers", "a,b"), "group-size-mismatch"},
		{"even group size", base("-replicas", "2", "-replica-peers", "a,b",
			"-replica-client-addrs", "x,y"), "even-group"},
		{"quorum larger than group", base("-replicas", "3", "-replica-peers", "a,b,c",
			"-replica-client-addrs", "x,y,z", "-replica-quorum", "4"), "quorum-too-large"},
		{"quorum below majority", base("-replicas", "3", "-replica-peers", "a,b,c",
			"-replica-client-addrs", "x,y,z", "-replica-quorum", "1"), "quorum-too-small"},
		{"id out of range", base("-replicas", "3", "-replica-peers", "a,b,c",
			"-replica-client-addrs", "x,y,z", "-replica-id", "5"), "id-out-of-range"},
		{"client addr count mismatch", base("-replicas", "3", "-replica-peers", "a,b,c",
			"-replica-client-addrs", "x,y"), "addr-mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := replicaCode(t, tc.args...); got != tc.code {
				t.Fatalf("code = %q, want %q", got, tc.code)
			}
		})
	}
}

// TestReplicaBootstrapBanner boots a 3-member group's node 0 alone (its
// peers are named but absent — the leader's senders just retry in the
// background) and checks the operator banner.
func TestReplicaBootstrapBanner(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-n", "2", "-m", "16", "-print-and-exit",
		"-persist-dir", filepath.Join(t.TempDir(), "r0"),
		"-replicas", "3", "-replica-id", "0",
		"-replica-peers", "127.0.0.1:0,127.0.0.1:1,127.0.0.1:2",
		"-replica-client-addrs", "127.0.0.1:0,127.0.0.1:1,127.0.0.1:2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "replica 0/3 leader (bootstrap): replication on 127.0.0.1:") {
		t.Fatalf("banner missing leader line:\n%s", got)
	}
	if !strings.Contains(got, "quorum 2/3") {
		t.Fatalf("banner missing quorum line:\n%s", got)
	}
	if strings.Count(got, "player ") != 2 {
		t.Fatalf("want 2 token lines:\n%s", got)
	}
}

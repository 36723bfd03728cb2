package server

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestReplicaPromotionCutsTornTail: a follower whose replicated wal ends in
// a torn frame (its leader died mid-chunk) is promoted. Recovery cuts the
// torn bytes and the promotion rotates, so the replicated stream holds
// exactly the bytes of the wal it mirrors and the torn bytes can never
// reach a follower; a restart from the promoted node's directory recovers
// the same state.
func TestReplicaPromotionCutsTornTail(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 24, Good: 6}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	scfg := Config{Universe: u, Tokens: []string{"t0", "t1"}, Alpha: 1, Beta: u.Beta()}
	// A three-member group in which only node 1 runs: the others' addresses
	// refuse connections, and the election timeout never fires, so the
	// promotion below is the only one.
	var peers, clients []string
	for range 3 {
		for _, addrs := range []*[]string{&peers, &clients} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			*addrs = append(*addrs, ln.Addr().String())
			ln.Close()
		}
	}
	repLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clientLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := StartReplica(ReplicaConfig{
		ID: 1, Peers: peers, ClientAddrs: clients, Dir: dir,
		HeartbeatEvery: 10 * time.Millisecond, ElectionTimeout: time.Hour,
		RepListener: repLn, ClientListener: clientLn, Logf: t.Logf,
	}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// The leader's stream: a committed round (player 0's probe), an
	// uncommitted probe and post, then the first bytes of a frame.
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	for _, err := range []error{
		w.Probe(5, 1, 0, 3),
		w.EndRound(),
		w.Probe(5, 2, 0, 4),
		w.AppendFrom(5, 3, billboard.Post{Player: 0, Object: 4, Value: 1, Positive: true}),
		w.Probe(5, 4, 0, 5),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()[:buf.Len()-3]
	if ack := n.applyRep(&wire.RepMsg{Type: wire.RepAppend, Term: 1, From: 0, Data: data}); !ack.OK {
		t.Fatalf("append: %+v", ack)
	}

	n.mu.Lock()
	err = n.becomeLeaderLocked(2, false)
	n.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	srv := n.Server()
	probes, _, _, _ := srv.Stats()
	if srv.Round() != 1 || !reflect.DeepEqual(probes, []int{2, 0}) {
		t.Fatalf("promoted at round %d with probe ledger %v, want round 1 with [2 0]", srv.Round(), probes)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files %v (%v), want one", wals, err)
	}
	wal, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	v := n.log.view()
	if got := streamBytes(v, v.base); !bytes.Equal(got, wal) {
		t.Fatalf("replicated stream holds %x past its base, the wal %x", got, wal)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files %v (%v), want one", snaps, err)
	}
	if snap, err := os.ReadFile(snaps[0]); err != nil || !bytes.Equal(snap, v.snap) {
		t.Fatalf("the stream's base snapshot differs from %s (%v)", snaps[0], err)
	}
	n.Close()

	st, err := journal.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := scfg
	cfg.Persist = st
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if probes, _, _, _ := again.Stats(); again.Round() != 1 || !reflect.DeepEqual(probes, []int{2, 0}) {
		t.Fatalf("restart recovered round %d with probe ledger %v, want round 1 with [2 0]", again.Round(), probes)
	}
}

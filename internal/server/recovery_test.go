package server_test

// Crash-recovery tests on the durable path (Config.Persist): a server killed
// between or inside rounds and rebuilt from its store's snapshot + journal
// tail must reproduce the committed board, the round counter, the probe
// ledger, and every binding decision (force-done expulsions) exactly.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// openDurable opens (or reopens) the persist store in dir and builds a
// server over it; cfg supplies everything but Persist.
func openDurable(t *testing.T, dir string, cfg server.Config) (*server.Server, *journal.Store) {
	t.Helper()
	st, err := journal.OpenStore(dir, journal.SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persist = st
	srv, err := server.New(cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return srv, st
}

// barrierAll runs every client's round barrier concurrently (the barrier
// waits for all registered players, so sequential calls would deadlock).
func barrierAll(cs ...*client.Client) {
	var wg sync.WaitGroup
	wg.Add(len(cs))
	for _, c := range cs {
		go func(c *client.Client) { defer wg.Done(); _, _ = c.Barrier() }(c)
	}
	wg.Wait()
}

// tailKinds replays a store's journal tail and returns its record kinds.
func tailKinds(t *testing.T, st *journal.Store) []journal.RecordKind {
	t.Helper()
	var kinds []journal.RecordKind
	if err := journal.ReplayRecords(st.Tail(), func(r journal.Record) error {
		kinds = append(kinds, r.Kind)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestCrashRecovery journals a few rounds, "crashes" the server, and brings
// up a replacement from the store's journal alone (no snapshot): the
// billboard, the round counter, and the probe ledger must survive.
func TestCrashRecovery(t *testing.T) {
	u := plantedUniverse(t)
	bad := firstBad(u)
	dir := t.TempDir()
	cfg := server.Config{Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta()}

	srv1, st1 := openDurable(t, dir, cfg)
	addr1, err := srv1.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c0, err := client.Dial(addr1, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(addr1, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Probe(bad); err != nil {
		t.Fatal(err)
	}
	if err := c0.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 0 commits (journaled)
	if err := c1.Post(bad, 0.5, false); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 1 commits
	live := srv1.Digest()
	liveProbes, _, _, _ := srv1.Stats()
	c0.Close()
	c1.Close()
	srv1.Close()
	st1.Close()

	// "Crash" happened; bring up a replacement from the store.
	srv2, st2 := openDurable(t, dir, cfg)
	defer st2.Close()
	defer srv2.Close()
	if srv2.Round() != 2 {
		t.Fatalf("recovered round = %d, want 2", srv2.Round())
	}
	if !bytes.Equal(srv2.Digest(), live) {
		t.Fatalf("recovered board diverged:\nlive:\n%s\nrecovered:\n%s", live, srv2.Digest())
	}
	probes, _, _, _ := srv2.Stats()
	if probes[0] != liveProbes[0] || probes[1] != liveProbes[1] {
		t.Fatalf("recovered probe ledger = %v, want %v", probes, liveProbes)
	}
}

// TestRecoverFromGarbageRejected: a wal that fails on its very first frame
// is a torn tail with an empty prefix — tolerated, the server comes up
// fresh — while an undecodable snapshot is corruption the server refuses
// to start from.
func TestRecoverFromGarbageRejected(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 8, Good: 1}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Universe: u, Tokens: []string{"t"}}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, st := openDurable(t, dir, cfg)
	if srv.Round() != 0 {
		t.Fatalf("round = %d", srv.Round())
	}
	srv.Close()
	st.Close()

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.bin"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = journal.OpenStore(dir, journal.SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.Persist = st
	if _, err := server.New(cfg); err == nil || !strings.Contains(err.Error(), "recover snapshot") {
		t.Fatalf("garbage snapshot accepted: %v", err)
	}
}

// TestCompactionCycle exercises the compaction story on SnapshotEvery
// rotation: rounds run, the store rotates behind a full snapshot (the
// journal so far is truncated), more rounds land in the fresh wal, the
// server crashes, and snapshot + tail recover the exact state.
func TestCompactionCycle(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 16, Good: 1}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	bad := firstBad(u)
	dir := t.TempDir()
	cfg := server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		SnapshotEvery: 2,
	}
	srv1, st1 := openDurable(t, dir, cfg)
	addr, err := srv1.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c0, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 0 committed
	barrierAll(c0, c1) // round 1 committed: the store rotates behind a snapshot
	if err := c1.Post(bad, 0.4, false); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 2 committed into the fresh wal
	live := srv1.Digest()
	c0.Close()
	c1.Close()
	srv1.Close()
	st1.Close()

	srv2, st2 := openDurable(t, dir, cfg)
	defer st2.Close()
	defer srv2.Close()
	if st2.Snapshot() == nil {
		t.Fatal("no snapshot after SnapshotEvery rotation")
	}
	// The rotation truncated the journal: the tail holds round 2 only — the
	// negative report, not round 0's vote.
	posts, markers := 0, 0
	for _, k := range tailKinds(t, st2) {
		switch k {
		case journal.RecordPost:
			posts++
		case journal.RecordEndRound:
			markers++
		}
	}
	if posts != 1 || markers != 1 {
		t.Fatalf("journal tail holds %d posts over %d rounds, want 1 over 1", posts, markers)
	}
	if srv2.Round() != 3 {
		t.Fatalf("recovered round = %d, want 3", srv2.Round())
	}
	if !bytes.Equal(srv2.Digest(), live) {
		t.Fatalf("snapshot + tail diverged from the live board:\nlive:\n%s\nrecovered:\n%s", live, srv2.Digest())
	}
}

// TestMidRoundDisconnectResumeMatchesReplay drops a player mid-round (within
// its session grace), lets it resume and finish the round, and checks that
// the board the resumed player observes is exactly the board a crash
// recovery rebuilds from the store.
func TestMidRoundDisconnectResumeMatchesReplay(t *testing.T) {
	u := plantedUniverse(t)
	bad := firstBad(u)
	dir := t.TempDir()
	cfg := server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 5 * time.Second,
	}
	srv, st := openDurable(t, dir, cfg)
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}

	opts := client.Options{Retries: 6, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond}
	c0, err := client.DialOptions(addr, 0, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.DialOptions(addr, 1, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}

	if err := c0.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 0 commits

	// Round 1: player 1 posts, then its connection dies mid-round. The
	// session grace keeps it registered; its next call resumes.
	if err := c1.Post(bad, 0.5, false); err != nil {
		t.Fatal(err)
	}
	c1.Abort()
	barrierAll(c0, c1) // player 1's barrier reconnects and resumes transparently
	if err := c1.Err(); err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	// What the resumed player reads is the committed board…
	if got := c1.VoteCount(bad); got != 1 {
		t.Fatalf("resumed player sees vote count %d, want 1", got)
	}
	if got := c1.NegativeCount(bad); got != 1 {
		t.Fatalf("resumed player sees negative count %d, want 1", got)
	}
	live := srv.Digest()
	c0.Close()
	c1.Close()
	srv.Close()
	st.Close()

	// …and the store replays to the very same board: the disconnect and
	// resume left no trace in durable state.
	recovered, st2 := openDurable(t, dir, cfg)
	defer st2.Close()
	defer recovered.Close()
	if recovered.Round() != 2 {
		t.Fatalf("replayed round = %d, want 2", recovered.Round())
	}
	if !bytes.Equal(recovered.Digest(), live) {
		t.Fatalf("journal replay diverged from live board:\nlive:\n%s\nreplayed:\n%s",
			live, recovered.Digest())
	}
}

// TestForceDoneSurvivesRecovery checks that a barrier-deadline expulsion is
// durable: after a crash, the recovered server still refuses the expelled
// player.
func TestForceDoneSurvivesRecovery(t *testing.T) {
	u := plantedUniverse(t)
	dir := t.TempDir()
	cfg := server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		SessionGrace:    time.Minute,
		BarrierDeadline: 50 * time.Millisecond,
	}
	srv, st := openDurable(t, dir, cfg)
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c0, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	// Player 1 registers but never barriers: the deadline expels it and
	// commits round 0; another prompt round follows.
	if _, err := c0.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Barrier(); err != nil {
		t.Fatal(err)
	}
	c0.Close()
	c1.Close()
	srv.Close()
	st.Close()

	recovered, st2 := openDurable(t, dir, cfg)
	defer st2.Close()
	if recovered.Round() != 2 {
		t.Fatalf("recovered round = %d, want 2", recovered.Round())
	}
	fd := recovered.ForceDone()
	if r, ok := fd[1]; !ok || r != 0 || len(fd) != 1 {
		t.Fatalf("recovered force-done map = %v, want player 1 in round 0", fd)
	}
	addr2, err := recovered.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if c, err := client.Dial(addr2, 1, "tok"); err == nil {
		c.Close()
		t.Fatal("force-done player rejoined after recovery")
	} else if !strings.Contains(err.Error(), "force-done") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestRollbackFencesUncommittedTail pins the double-recovery contract: a
// recovering server discards an uncommitted tail and appends a rollback
// marker; when the crashed round's post is re-executed and the round
// commits, a second recovery of the same store must treat the orphaned
// record as discarded too, not re-apply it alongside its re-execution.
func TestRollbackFencesUncommittedTail(t *testing.T) {
	u := plantedUniverse(t)
	bad := firstBad(u)
	dir := t.TempDir()
	cfg := server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 10 * time.Second,
	}
	srv1, st1 := openDurable(t, dir, cfg)
	addr, err := srv1.Start("")
	if err != nil {
		t.Fatal(err)
	}
	opts := client.Options{Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond}
	c0, err := client.DialOptions(addr, 0, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := client.DialOptions(addr, 1, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c0.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 0 commits
	// Round 1's report reaches the journal, then the server dies before the
	// round commits.
	if err := c0.Post(bad, 0.5, false); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	st1.Close()

	// First recovery: the orphaned report is discarded and fenced; the
	// player re-executes it on the restarted server and the round commits.
	srv2, st2 := openDurable(t, dir, cfg)
	if srv2.Round() != 1 {
		t.Fatalf("first recovery round = %d, want 1", srv2.Round())
	}
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	if err := c0.Post(bad, 0.5, false); err != nil {
		t.Fatal(err)
	}
	barrierAll(c0, c1) // round 1 commits on the recovered server
	if got := c1.NegativeCount(bad); got != 1 {
		t.Fatalf("live negative count = %d, want 1", got)
	}
	live := srv2.Digest()
	srv2.Close()
	st2.Close()

	// Second recovery of the same store: the rollback marker keeps the
	// orphan out, so the re-executed report counts once.
	srv3, st3 := openDurable(t, dir, cfg)
	defer st3.Close()
	defer srv3.Close()
	rollbacks := 0
	for _, k := range tailKinds(t, st3) {
		if k == journal.RecordRollback {
			rollbacks++
		}
	}
	if rollbacks != 1 {
		t.Fatalf("journal holds %d rollback markers, want 1", rollbacks)
	}
	if srv3.Round() != 2 {
		t.Fatalf("second recovery round = %d, want 2", srv3.Round())
	}
	if !bytes.Equal(srv3.Digest(), live) {
		t.Fatalf("second recovery diverged (orphan re-applied?):\nlive:\n%s\nrecovered:\n%s", live, srv3.Digest())
	}
}

// TestPersistRejectsOutOfRangePlayers feeds recovery a store that names a
// player the server was not configured with — one row per journal record
// kind that carries a player index, plus a snapshot row — and requires a
// recovery error, never an index panic.
func TestPersistRejectsOutOfRangePlayers(t *testing.T) {
	u := plantedUniverse(t)
	cfg := server.Config{Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta()}
	const bad = 99
	// snapshotShape mirrors the server snapshot's gob fields by name.
	type snapshotShape struct {
		Board      []byte
		Registered []int
		Active     []int
		Probes     []int
		Cost       []float64
		Satisfied  []bool
	}
	snapshot := func() []byte {
		board, err := billboard.New(billboard.Config{Players: 2, Objects: u.M()})
		if err != nil {
			t.Fatal(err)
		}
		boardBytes, err := board.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snapshotShape{
			Board: boardBytes, Registered: []int{0, bad}, Active: []int{0},
			Probes: make([]int, 2), Cost: make([]float64, 2), Satisfied: make([]bool, 2),
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	post := billboard.Post{Player: bad, Object: 0, Value: 1, Positive: true}
	cases := []struct {
		name  string
		write func(st *journal.Store) error
	}{
		{"probe", func(st *journal.Store) error { return st.Writer().Probe(1, 1, bad, 0) }},
		{"done", func(st *journal.Store) error { return st.Writer().Done(1, 1, bad) }},
		{"swarm-open", func(st *journal.Store) error { return st.Writer().SwarmOpen(1, 0, bad) }},
		{"post", func(st *journal.Store) error {
			if err := st.Writer().AppendFrom(1, 1, post); err != nil {
				return err
			}
			return st.Writer().EndRound()
		}},
		{"barrier", func(st *journal.Store) error {
			if err := st.Writer().Barrier(1, 1, bad); err != nil {
				return err
			}
			return st.Writer().EndRound()
		}},
		{"force-done", func(st *journal.Store) error {
			if err := st.Writer().ForceDone(bad); err != nil {
				return err
			}
			return st.Writer().EndRound()
		}},
		{"snapshot", func(st *journal.Store) error { return st.Rotate(snapshot()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := journal.OpenStore(dir, journal.SyncCommit)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(st); err != nil {
				t.Fatal(err)
			}
			st.Close()
			srv, err := func() (srv *server.Server, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				st, err := journal.OpenStore(dir, journal.SyncCommit)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				c := cfg
				c.Persist = st
				return server.New(c)
			}()
			if err == nil {
				srv.Close()
				t.Fatalf("recovery accepted player %d on a %d-player server", bad, len(cfg.Tokens))
			}
			if strings.HasPrefix(err.Error(), "panic") || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Fatalf("want a range error naming player %d, got: %v", bad, err)
			}
		})
	}
}

// TestPersistResumesSessionRebuiltFromPost: recovery rebuilds a session
// whose only journaled records are posts under the posting player, so the
// client resumes it after the restart instead of being told the session
// belongs to another player.
func TestPersistResumesSessionRebuiltFromPost(t *testing.T) {
	u := plantedUniverse(t)
	dir := t.TempDir()
	st, err := journal.OpenStore(dir, journal.SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	const session = 7
	if err := st.Writer().AppendFrom(session, 1, billboard.Post{Player: 1, Object: firstBad(u), Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Writer().EndRound(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	srv, st2 := openDurable(t, dir, server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 10 * time.Second,
	})
	defer st2.Close()
	defer srv.Close()
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	resp := rawDial(t, addr).roundTrip(wire.Request{
		Type: wire.ReqHello, Player: 1, Token: "tok", Version: wire.Version, Session: session,
	})
	if resp.Err != "" {
		t.Fatalf("resume of a session rebuilt from its post: %s", resp.Err)
	}
}

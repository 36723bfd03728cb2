package server

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/wire"
)

// pendingPosts counts the accepted, uncommitted posts the server's board
// buffers.
func pendingPosts(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.board.Pending())
}

// TestPersistShardedRollsBackUncommittedPosts pins the one rule for an
// acknowledged post: it survives iff its round commits. A durable server
// restarted over an acknowledged batch whose round never committed holds
// none of it, and a second restart finds none either. The batch re-sent
// with its arrival commits exactly once, to the digest of a server that saw
// it once, and a final restart replays the committed round to the same
// digest, which takes replay honoring the rollback marker the first restart
// wrote.
func TestPersistShardedRollsBackUncommittedPosts(t *testing.T) {
	posts := make([]wire.PostMsg, 6)
	for i := range posts {
		posts[i] = wire.PostMsg{Player: 0, Object: i, Value: float64(i), Positive: i%3 == 0}
	}
	batch := wire.Request{Type: wire.ReqPostBatch, Posts: posts}
	withArrival := wire.Request{Type: wire.ReqPostBatch, Posts: posts, EndRound: true, Epoch: 1}

	ref := newFrameRig(t, rigConfig(t, ModeSync, 1))
	defer ref.s.Close()
	ref.send(ref.join(0), withArrival)
	want := ref.s.Digest()

	t.Run("shards-1", func(t *testing.T) {
		dir := t.TempDir()
		var st *journal.Store
		var r *frameRig
		open := func() {
			var err error
			if st, err = journal.OpenStore(dir, journal.SyncCommit); err != nil {
				t.Fatal(err)
			}
			cfg := rigConfig(t, ModeSync, 1)
			cfg.Persist, cfg.SessionGrace = st, time.Minute
			r = newFrameRig(t, cfg)
		}
		restart := func() {
			if err := r.s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			open()
		}
		open()
		defer func() {
			r.s.Close()
			st.Close()
		}()

		r.send(r.join(0), batch)
		if n := pendingPosts(r.s); n != len(posts) {
			t.Fatalf("%d posts pending after the batch, want %d", n, len(posts))
		}
		for i := 1; i <= 2; i++ {
			restart()
			if n := pendingPosts(r.s); n != 0 {
				t.Fatalf("restart %d: %d acknowledged posts of an uncommitted round pending, want 0", i, n)
			}
		}

		own := r.join(0)
		r.send(own, withArrival)
		if got := r.s.Digest(); !bytes.Equal(got, want) {
			t.Fatalf("re-sent batch committed a different board:\ngot:\n%s\nwant (committed once):\n%s", got, want)
		}

		restart()
		if n := pendingPosts(r.s); n != 0 {
			t.Fatalf("final restart: %d posts pending, want 0", n)
		}
		if got := r.s.Digest(); !bytes.Equal(got, want) {
			t.Fatalf("restart replayed a different board:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestPersistCommittedPostResendReplays pins the other half of the rule: a
// post whose round committed is applied once, even when its client re-sends
// it after a restart. An epoch-mode deadline seals the round with player 0's
// post batch but without its arrival, so no arrival record carries the
// batch's sequence number; recovery must take it from the committed post
// records, and the resend must replay instead of posting the batch again.
func TestPersistCommittedPostResendReplays(t *testing.T) {
	posts := []wire.PostMsg{
		{Player: 0, Object: 1, Value: 1, Positive: true},
		{Player: 0, Object: 2, Value: 0},
		{Player: 0, Object: 3, Value: 0},
	}
	t.Run("shards-1", func(t *testing.T) {
		dir := t.TempDir()
		open := func() (*frameRig, *journal.Store) {
			st, err := journal.OpenStore(dir, journal.SyncCommit)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rigConfig(t, ModeEpoch, 2)
			cfg.Persist, cfg.SessionGrace = st, time.Minute
			cfg.BarrierDeadline = 5 * time.Millisecond
			return newFrameRig(t, cfg), st
		}
		r, st := open()
		own := r.join(0)
		other := r.join(1)
		r.send(own, wire.Request{Type: wire.ReqPostBatch, Posts: posts})
		r.answered(r.arrive(other), 1) // the deadline seals round 0 without player 0
		if n := pendingPosts(r.s); n != 0 {
			t.Fatalf("%d posts pending after the seal, want 0", n)
		}
		want := r.s.Digest()
		r.s.Close()
		st.Close()

		r, st = open()
		defer func() {
			r.s.Close()
			st.Close()
		}()
		own = r.join(0) // the rig's first session id again: a resume
		r.send(own, wire.Request{Type: wire.ReqPostBatch, Posts: posts})
		if n := pendingPosts(r.s); n != 0 {
			t.Fatalf("the resent batch of a committed round was posted again: %d pending, want 0", n)
		}
		if got := r.s.Digest(); !bytes.Equal(got, want) {
			t.Fatalf("recovered board differs:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestPersistShardedForceDoneStaysExpelled pins that a restart keeps a
// force-done player expelled. Player 1 posts a batch and never arrives, so
// the sync deadline force-dones it and its posts commit with the round. The
// expulsion deletes its session; replay applies the posts and then the
// expulsion, and may not rebuild the session. Player 0 finishes first, on
// its own session or on a swarm session it shares with player 1. The resume
// is refused: with CodeBarrierDeadline on player 1's own session, and with
// CodeSessionExpired on the swarm session, which the expulsion took with it
// while player 0 stays registered. The recovered board
// matches the one committed before the restart.
func TestPersistShardedForceDoneStaysExpelled(t *testing.T) {
	batch := func(players ...int) wire.Request {
		req := wire.Request{Type: wire.ReqPostBatch}
		for _, p := range players {
			for o := 0; o < 4; o++ {
				req.Posts = append(req.Posts, wire.PostMsg{Player: p, Object: o, Value: float64(o), Positive: o == 2})
			}
		}
		return req
	}
	for _, swarm := range []bool{false, true} {
		name := "shards-1"
		if swarm {
			name = "swarm-" + name
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*frameRig, *journal.Store) {
				st, err := journal.OpenStore(dir, journal.SyncCommit)
				if err != nil {
					t.Fatal(err)
				}
				cfg := rigConfig(t, ModeSync, 3)
				cfg.Persist, cfg.SessionGrace = st, time.Minute
				cfg.BarrierDeadline = 5 * time.Millisecond
				return newFrameRig(t, cfg), st
			}
			r, st := open()
			own := r.join(2)
			resume := wire.Request{Type: wire.ReqHello, Version: wire.Version}
			wantCode := wire.CodeBarrierDeadline
			if swarm {
				block := r.joinSwarm(0, 2)
				r.send(block, batch(0, 1))
				r.send(block, wire.Request{Type: wire.ReqDone, Players: []int{0}})
				resume.Swarm, resume.Player, resume.PlayerTo, resume.Token = true, 0, 2, rigSwarmToken
				resume.Session, wantCode = block.id, wire.CodeSessionExpired
			} else {
				r.send(r.join(0), wire.Request{Type: wire.ReqDone, Players: []int{0}})
				straggler := r.join(1)
				r.send(straggler, batch(1))
				resume.Player, resume.Token, resume.Session = 1, r.s.cfg.Tokens[1], straggler.id
			}
			r.answered(r.arrive(own), 1) // the deadline force-dones player 1
			if n := pendingPosts(r.s); n != 0 {
				t.Fatalf("%d posts pending after the seal, want 0", n)
			}
			digest := r.s.Digest()
			r.s.Close()
			st.Close()

			r, st = open()
			defer func() {
				r.s.Close()
				st.Close()
			}()
			if resp, _, _ := r.s.hello(&resume); resp.Code != wantCode {
				t.Fatalf("resume of the force-done player's session answered %+v, want code %v", resp, wantCode)
			}
			fresh := wire.Request{Type: wire.ReqHello, Version: wire.Version, Player: 1, Token: r.s.cfg.Tokens[1], Session: 99}
			if resp, _, _ := r.s.hello(&fresh); resp.Code != wire.CodeBarrierDeadline {
				t.Fatalf("fresh hello of force-done player 1 answered %+v, want code %v", resp, wire.CodeBarrierDeadline)
			}
			if got := r.s.Digest(); !bytes.Equal(got, digest) {
				t.Fatalf("recovered board differs:\ngot:\n%s\nwant:\n%s", got, digest)
			}
		})
	}
}

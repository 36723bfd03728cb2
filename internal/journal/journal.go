// Package journal persists a billboard as an append-only log — the
// durability counterpart of the model's "append only" guarantee (§2.1: no
// message is ever erased). A Writer streams committed posts and round
// markers to any io.Writer; ReplayRecords decodes them back, record by
// record, and a Store keeps the snapshot + journal tail pair that a
// durable billboard server (server.Config.Persist) recovers from without
// losing a single identity-tagged, timestamped report.
//
// Format: length-prefixed frames (uvarint length + gob-encoded entry),
// each frame self-contained. Self-contained frames make journals safely
// appendable across process restarts (unlike a single gob stream, whose
// type dictionary cannot be re-sent), and a torn tail loses at most the
// final partial frame. Posts are grouped into rounds by marker frames; a
// round without its marker was never visible to players (the synchrony
// contract) and is discarded by recovery.
//
// Write-ahead records (durable restart). Beyond posts and round markers,
// the journal carries the operational records a server needs to restart
// mid-run with no observable effect on honest players:
//
//   - probe records (session, seq, player, object): the charged-probe
//     ledger. A probe is charged if and only if its record reached the
//     journal, so a recovered server re-derives per-player probe counts
//     and costs exactly — a retried probe is never double-billed across a
//     restart.
//   - barrier and done records (session, seq): round/membership state. A
//     barrier record is round-buffered like a post (an uncommitted round's
//     arrivals are discarded and re-arrive on retry); a done record
//     applies immediately (deregistration is idempotent).
//   - rollback markers: appended by a recovering server after it discards
//     an uncommitted tail, so a later recovery of the same file discards
//     that orphan prefix too instead of double-applying re-executed posts.
//
// Session-scoped records let recovery rebuild each session's dedup window
// (last executed sequence number), which is what makes a server restart
// look like an ordinary long reconnect to a resuming client.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/billboard"
)

// entryKind discriminates journal records.
type entryKind uint8

const (
	kindPost entryKind = iota + 1
	kindEndRound
	kindForceDone
	kindProbe
	kindDone
	kindBarrier
	kindRollback
	kindSwarmOpen
	kindEpoch
)

// entry is one journal record. Session/Seq are zero in journals written
// before the write-ahead extension; gob decodes old frames with the new
// fields absent, so both generations replay through the same path. Index
// and Admits are the sharding extension: a sharded server's lanes journal
// each post with its global batch index, and round markers carry the
// round's admitted (player, object) vote pairs so a single lane's journal
// replays to exactly the votes the global admission pass granted, without
// consulting the other lanes.
type entry struct {
	Kind    entryKind
	Post    billboard.Post // valid when Kind == kindPost
	Player  int            // valid for kindForceDone, kindProbe, kindDone, kindBarrier
	Session uint64         // session the record belongs to (0: none recorded)
	Seq     uint64         // per-session request sequence number (0: none)
	Object  int            // valid when Kind == kindProbe
	Index   int            // valid when Kind == kindPost: client batch order
	Admits  []Admit        // valid when Kind == kindEndRound on a sharded store
	// PlayerTo closes the member range [Player, PlayerTo) of a swarm
	// session (kindSwarmOpen): one session that registered a contiguous
	// block of players at once. Recovery rebuilds the whole block's
	// membership from the single record.
	PlayerTo int

	// Term and Quorum annotate a round marker written by a replicated
	// coordinator (kindEndRound): the leader term that proposed the round
	// and the number of durable replica acknowledgements (leader included)
	// the commit waited for. Zero on single-coordinator journals — gob
	// omits zero fields, so unreplicated journals stay byte-identical.
	Term   uint64
	Quorum int

	// Epoch is the sealed epoch number of an epoch marker (kindEpoch).
	// Earlier epoch-mode servers wrote one next to each round marker; none
	// is written any more, and nothing reads it. The kind stays decodable
	// so such a journal still replays: the round markers alone rebuild the
	// board.
	Epoch int
}

// Admit is one admitted vote pair recorded on a sharded round marker: in
// the round it closes, player's positive post on Object became a vote.
type Admit struct {
	Player int
	Object int
}

// maxFrame bounds a frame's declared size; anything larger is corruption.
const maxFrame = 1 << 20

// SyncPolicy selects when a Writer invokes its sync hook (typically
// os.File.Sync) — the durability/throughput trade-off of the journal.
type SyncPolicy int

const (
	// SyncCommit fsyncs at round markers and rollbacks (the default): a
	// machine crash loses at most the uncommitted round, which the
	// synchrony contract discards anyway. Probe records between commits
	// ride in the OS page cache — durable across a process kill, not
	// across a power cut.
	SyncCommit SyncPolicy = iota
	// SyncNone never fsyncs: the OS flushes on its own schedule. Process
	// crashes (kill -9) still lose nothing — written bytes survive the
	// process — but a machine crash can lose committed rounds.
	SyncNone
	// SyncAlways fsyncs after every record: full durability, one disk
	// flush per probe/post on the hot path.
	SyncAlways
)

// String returns the policy name as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncCommit:
		return "commit"
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "commit", "none", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit":
		return SyncCommit, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync policy %q (want commit, none, or always)", s)
	}
}

// Writer appends billboard events to an underlying stream. Not safe for
// concurrent use; callers serialize (the billboard server holds its lock
// across AppendFrom/EndRound).
type Writer struct {
	w      io.Writer
	buf    bytes.Buffer
	lenb   [binary.MaxVarintLen64]byte
	err    error // first write error; subsequent calls fail fast
	sync   func() error
	policy SyncPolicy
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// SetSync installs a sync hook (typically os.File.Sync) invoked per the
// policy: after every frame (SyncAlways) or after round markers and
// rollbacks only (SyncCommit). SyncNone never invokes it.
func (w *Writer) SetSync(sync func() error, policy SyncPolicy) {
	w.sync, w.policy = sync, policy
}

func (w *Writer) write(e entry) error {
	if w.err != nil {
		return w.err
	}
	w.buf.Reset()
	// A fresh encoder per frame keeps every frame self-contained, which is
	// what makes append-after-recovery safe.
	if err := gob.NewEncoder(&w.buf).Encode(e); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	n := binary.PutUvarint(w.lenb[:], uint64(w.buf.Len()))
	if _, err := w.w.Write(w.lenb[:n]); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	if _, err := w.w.Write(w.buf.Bytes()); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	if w.sync != nil &&
		(w.policy == SyncAlways ||
			(w.policy == SyncCommit && (e.Kind == kindEndRound || e.Kind == kindRollback))) {
		if err := w.sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
			return w.err
		}
	}
	return nil
}

// AppendFrom records one accepted post under the session and sequence
// number that produced it, so recovery can rebuild the session's dedup
// window alongside the board.
func (w *Writer) AppendFrom(session, seq uint64, post billboard.Post) error {
	return w.write(entry{Kind: kindPost, Post: post, Session: session, Seq: seq})
}

// AppendAt is AppendFrom plus the post's client batch order index — the
// write-ahead form used by a sharded lane, where the commit order across
// lanes is (player, index) rather than single-log arrival order.
func (w *Writer) AppendAt(session, seq uint64, index int, post billboard.Post) error {
	return w.write(entry{Kind: kindPost, Post: post, Session: session, Seq: seq, Index: index})
}

// EndRound records a round boundary.
func (w *Writer) EndRound() error {
	return w.write(entry{Kind: kindEndRound})
}

// EndRoundAdmits records a round boundary carrying the round's admitted
// vote pairs (sharded stores). Replaying a single lane honors the recorded
// admissions instead of re-deriving them, which keeps lane replay exact
// even though the global vote budget was consumed across all lanes.
func (w *Writer) EndRoundAdmits(admits []Admit) error {
	return w.write(entry{Kind: kindEndRound, Admits: admits})
}

// EndRoundQuorum records a round boundary annotated with the replication
// facts of its commit: the leader term that proposed it and the quorum of
// durable replica acknowledgements it waited for. A replicated coordinator
// seals every round with this marker; replay treats it exactly like
// EndRoundAdmits and surfaces the annotation on Record.Term/Quorum.
func (w *Writer) EndRoundQuorum(admits []Admit, term uint64, quorum int) error {
	return w.write(entry{Kind: kindEndRound, Admits: admits, Term: term, Quorum: quorum})
}

// AppendEndRoundFrame appends one complete round-marker frame — uvarint
// length prefix plus gob payload, byte-identical to what EndRoundAdmits
// (term and quorum zero) or EndRoundQuorum would write — to dst and returns
// the extended slice. Frames are self-contained (fresh encoder per frame),
// so a sharded commit encodes its admits marker once and hands the same
// bytes to every lane's WriteEndRoundFrame instead of re-encoding per lane.
func AppendEndRoundFrame(dst []byte, admits []Admit, term uint64, quorum int) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entry{
		Kind: kindEndRound, Admits: admits, Term: term, Quorum: quorum,
	}); err != nil {
		return dst, fmt.Errorf("journal: %w", err)
	}
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(buf.Len()))
	dst = append(dst, lenb[:n]...)
	dst = append(dst, buf.Bytes()...)
	return dst, nil
}

// WriteEndRoundFrame appends a pre-encoded round-marker frame (from
// AppendEndRoundFrame) and applies the writer's round-marker sync policy,
// exactly as EndRoundAdmits would. The frame lands in one underlying Write,
// so a store mirror tees it as a single chunk.
func (w *Writer) WriteEndRoundFrame(frame []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.Write(frame); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	if w.sync != nil && w.policy != SyncNone {
		if err := w.sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
			return w.err
		}
	}
	return nil
}

// ForceDone records a barrier-deadline decision: the server deregistered
// player as a straggler so the round could commit. Journaling the decision
// keeps crash recovery consistent — a recovered server refuses to let a
// force-done player rejoin a run it was already expelled from.
func (w *Writer) ForceDone(player int) error {
	return w.write(entry{Kind: kindForceDone, Player: player})
}

// Probe records a charged probe before its response is sent — the
// write-ahead half of the exactly-once billing contract: a probe is
// charged iff its record is in the journal.
func (w *Writer) Probe(session, seq uint64, player, object int) error {
	return w.write(entry{Kind: kindProbe, Session: session, Seq: seq, Player: player, Object: object})
}

// Done records a player's voluntary deregistration.
func (w *Writer) Done(session, seq uint64, player int) error {
	return w.write(entry{Kind: kindDone, Session: session, Seq: seq, Player: player})
}

// Barrier records a player's arrival at the round barrier. Buffered like a
// post: it binds only when the round's marker follows.
func (w *Writer) Barrier(session, seq uint64, player int) error {
	return w.write(entry{Kind: kindBarrier, Session: session, Seq: seq, Player: player})
}

// Rollback marks that a recovering server discarded the records since the
// last round marker (the uncommitted tail of a crashed run). Replays honor
// it by dropping their pending buffers, so posts re-executed after the
// restart are not double-applied by the next recovery.
func (w *Writer) Rollback() error {
	return w.write(entry{Kind: kindRollback})
}

// SwarmOpen records the registration of a swarm session: one session that
// registered every player in [from, to) at once. Applies immediately, like
// registration itself; recovery rebuilds the block's membership and session
// binding from this single record.
func (w *Writer) SwarmOpen(session uint64, from, to int) error {
	return w.write(entry{Kind: kindSwarmOpen, Session: session, Player: from, PlayerTo: to})
}

// Err returns the Writer's first write error (nil while healthy).
func (w *Writer) Err() error { return w.err }

// RecordKind discriminates replayed journal records.
type RecordKind uint8

// Record kinds, mirroring the Writer's vocabulary.
const (
	RecordPost      = RecordKind(kindPost)
	RecordEndRound  = RecordKind(kindEndRound)
	RecordForceDone = RecordKind(kindForceDone)
	RecordProbe     = RecordKind(kindProbe)
	RecordDone      = RecordKind(kindDone)
	RecordBarrier   = RecordKind(kindBarrier)
	RecordRollback  = RecordKind(kindRollback)
	RecordSwarmOpen = RecordKind(kindSwarmOpen)
	RecordEpoch     = RecordKind(kindEpoch)
)

// Record is one decoded journal record. Round is the number of round
// markers read before it — the round the record belongs to.
type Record struct {
	Kind    RecordKind
	Post    billboard.Post // valid when Kind == RecordPost
	Session uint64
	Seq     uint64
	Player  int     // valid for force-done, probe, done, barrier, swarm-open
	Object  int     // valid when Kind == RecordProbe
	Index   int     // valid when Kind == RecordPost: client batch order
	Admits  []Admit // valid when Kind == RecordEndRound on a sharded store
	// PlayerTo closes a swarm session's member range [Player, PlayerTo)
	// (RecordSwarmOpen).
	PlayerTo int
	// Term and Quorum surface a replicated round marker's annotation
	// (EndRoundQuorum); zero on single-coordinator journals.
	Term   uint64
	Quorum int
	// Epoch surfaces an epoch marker's sealed epoch number (RecordEpoch,
	// found only in journals of earlier epoch-mode servers).
	Epoch int
	Round int
}

// ErrTruncated marks a journal whose tail could not be decoded. State
// rebuilt before the truncation point is still valid.
var ErrTruncated = errors.New("journal: truncated or corrupt tail")

// ReplayRecords reads a journal and invokes fn for every record, stopping
// cleanly at EOF. A torn or corrupt tail is reported as ErrTruncated after
// every complete preceding frame has been delivered. Records are delivered
// raw: the round buffering that discards an uncommitted tail is the
// recovering server's job.
func ReplayRecords(r io.Reader, fn func(Record) error) error {
	br := bufio.NewReader(r)
	round := 0
	for {
		size, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		if size == 0 || size > maxFrame {
			return fmt.Errorf("%w: implausible frame size %d", ErrTruncated, size)
		}
		frame := make([]byte, size)
		if _, err := io.ReadFull(br, frame); err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		var e entry
		if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&e); err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		if e.Kind < kindPost || e.Kind > kindEpoch {
			return fmt.Errorf("%w: unknown entry kind %d", ErrTruncated, e.Kind)
		}
		rec := Record{
			Kind:     RecordKind(e.Kind),
			Post:     e.Post,
			Session:  e.Session,
			Seq:      e.Seq,
			Player:   e.Player,
			Object:   e.Object,
			Index:    e.Index,
			Admits:   e.Admits,
			PlayerTo: e.PlayerTo,
			Term:     e.Term,
			Quorum:   e.Quorum,
			Epoch:    e.Epoch,
			Round:    round,
		}
		if err := fn(rec); err != nil {
			return err
		}
		if e.Kind == kindEndRound {
			round++
		}
	}
}

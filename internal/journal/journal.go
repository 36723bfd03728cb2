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
// Encoding cost. A frame is exactly what a fresh gob encoder writes for
// its entry: the entry type's descriptors, then the value. The descriptors
// are the same for every entry, so they are encoded once per process (the
// type prefix) and every Writer keeps one primed encoder that emits the
// value alone; a frame is the prefix plus that value, byte for byte what a
// fresh encoder would write, and just as self-contained. A Writer batch
// (Begin … Flush) gathers a request's records into one underlying Write.
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
	"sync"

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
	// SyncAlways fsyncs after every write: full durability, one disk
	// flush per journaled request (a batch's records share one write, so
	// they share its flush) and per round marker.
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

// typePrefix holds the type-descriptor messages a fresh gob encoder writes
// ahead of its first entry — the same bytes for every entry, computed once
// per process. Computing it lazily keeps gob's process-wide type ids
// assigned at the first record, where a fresh encoder assigned them.
var typePrefix struct {
	once sync.Once
	b    []byte
	err  error
}

func entryPrefix() ([]byte, error) {
	typePrefix.once.Do(func() {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(&entry{}); err != nil {
			typePrefix.err = fmt.Errorf("journal: %w", err)
			return
		}
		first := buf.Len()
		if err := enc.Encode(&entry{}); err != nil {
			typePrefix.err = fmt.Errorf("journal: %w", err)
			return
		}
		// The second Encode wrote the value message alone; the first wrote
		// the descriptors ahead of the same message.
		out := buf.Bytes()
		value := out[first:]
		if !bytes.HasSuffix(out[:first], value) {
			typePrefix.err = errors.New("journal: gob type prefix did not split")
			return
		}
		typePrefix.b = bytes.Clone(out[:first-len(value)])
	})
	return typePrefix.b, typePrefix.err
}

// frameEncoder appends entries as journal frames. Its gob encoder is primed
// (it has sent entry's descriptors), so each Encode emits only the value
// message, which the frame puts behind the shared type prefix.
type frameEncoder struct {
	prefix []byte
	enc    *gob.Encoder
	value  bytes.Buffer
}

func newFrameEncoder() (*frameEncoder, error) {
	prefix, err := entryPrefix()
	if err != nil {
		return nil, err
	}
	fe := &frameEncoder{prefix: prefix}
	fe.enc = gob.NewEncoder(&fe.value)
	if err := fe.enc.Encode(&entry{}); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return fe, nil
}

// appendFrame appends e's frame — uvarint length, type prefix, value — to
// dst and returns the extended slice.
func (fe *frameEncoder) appendFrame(dst []byte, e *entry) ([]byte, error) {
	fe.value.Reset()
	if err := fe.enc.Encode(e); err != nil {
		return dst, fmt.Errorf("journal: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(fe.prefix)+fe.value.Len()))
	dst = append(dst, fe.prefix...)
	return append(dst, fe.value.Bytes()...), nil
}

// maxRetainedFrames bounds the frame buffer a Writer keeps between writes;
// a larger batch's buffer is dropped once written.
const maxRetainedFrames = 1 << 20

// Writer appends billboard events to an underlying stream. Not safe for
// concurrent use; callers serialize (the billboard server holds its lock
// across AppendFrom/EndRound).
//
// Each record is one Write of its frame, unless a batch is open: between
// Begin and Flush, records are encoded into the Writer's buffer and Flush
// writes them all in one Write, applying the sync policy once.
type Writer struct {
	w      io.Writer
	fe     *frameEncoder // primed at the first record
	e      entry         // the record being encoded (by pointer: no boxing)
	frames []byte        // encoded frames awaiting the underlying Write
	marker bool          // frames hold a round marker or rollback
	batch  bool          // between Begin and Flush
	err    error         // first write error; subsequent calls fail fast
	sync   func() error
	policy SyncPolicy
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// SetSync installs a sync hook (typically os.File.Sync) invoked per the
// policy: after every write (SyncAlways) or after writes holding a round
// marker or rollback (SyncCommit). SyncNone never invokes it.
func (w *Writer) SetSync(sync func() error, policy SyncPolicy) {
	w.sync, w.policy = sync, policy
}

// Begin opens a batch: the records appended until Flush reach the
// underlying stream together, in one Write. The caller must Flush before
// anything else can write through this Writer.
func (w *Writer) Begin() { w.batch = true }

// Flush closes a batch, writing its records in one Write (none when the
// batch is empty) and syncing once per the policy. Records encoded before a
// failure are discarded with the batch; the error is sticky.
func (w *Writer) Flush() error {
	w.batch = false
	return w.flush()
}

func (w *Writer) write(e entry) error {
	if w.err != nil {
		return w.err
	}
	if w.fe == nil {
		if w.fe, w.err = newFrameEncoder(); w.err != nil {
			return w.err
		}
	}
	w.e = e
	w.frames, w.err = w.fe.appendFrame(w.frames, &w.e)
	w.e = entry{} // keep no reference to the caller's admits
	if w.err != nil {
		return w.err
	}
	w.marker = w.marker || e.Kind == kindEndRound || e.Kind == kindRollback
	if w.batch {
		return nil
	}
	return w.flush()
}

func (w *Writer) flush() error {
	frames, marker := w.frames, w.marker
	w.frames, w.marker = w.frames[:0], false
	if cap(w.frames) > maxRetainedFrames {
		w.frames = nil
	}
	if w.err != nil {
		return w.err
	}
	if len(frames) == 0 {
		return nil
	}
	if _, err := w.w.Write(frames); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	if w.sync != nil && (w.policy == SyncAlways || (w.policy == SyncCommit && marker)) {
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
// the extended slice. Frames are self-contained, so a sharded commit
// encodes its admits marker once and hands the same bytes to every lane's
// WriteEndRoundFrame instead of re-encoding per lane.
func AppendEndRoundFrame(dst []byte, admits []Admit, term uint64, quorum int) ([]byte, error) {
	fe, err := newFrameEncoder()
	if err != nil {
		return dst, err
	}
	return fe.appendFrame(dst, &entry{Kind: kindEndRound, Admits: admits, Term: term, Quorum: quorum})
}

// WriteEndRoundFrame appends a pre-encoded round-marker frame (from
// AppendEndRoundFrame) and applies the writer's round-marker sync policy,
// exactly as EndRoundAdmits would. The frame lands in one underlying Write,
// so a store mirror tees it as a single chunk.
func (w *Writer) WriteEndRoundFrame(frame []byte) error {
	if w.err != nil {
		return w.err
	}
	w.frames = append(w.frames, frame...)
	w.marker = true
	if w.batch {
		return nil
	}
	return w.flush()
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

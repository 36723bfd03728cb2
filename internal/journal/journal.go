// Package journal persists a billboard as an append-only log — the
// durability counterpart of the model's "append only" guarantee (§2.1: no
// message is ever erased). A Writer streams committed posts and round
// markers to any io.Writer; ReplayRecords decodes them back, record by
// record, and a Store keeps the snapshot + journal tail pair that a
// durable billboard server (server.Config.Persist) recovers from without
// losing a single identity-tagged, timestamped report.
//
// Format: length-prefixed frames, each self-contained: a uvarint payload
// length, then the payload — the record's kind byte followed by every
// Record field but Round, in declaration order, none omitted, in the
// canonical encoding of internal/codec (zigzag varints, uvarints for
// Session and Seq, a 0/1 byte for Post.Positive, Post.Value in gob's
// byte-reversed float layout). No reflection and no type descriptors: a
// record takes 12 to about 38 bytes. Self-contained frames make journals
// safely appendable across process restarts. Posts are grouped into rounds by marker frames; a round
// without its marker was never visible to players (the synchrony contract)
// and is discarded by recovery. A Writer batch (Begin … Flush) gathers a
// request's records into one underlying Write.
//
// Torn versus corrupt. A journal whose final frame is incomplete (a crash
// mid-write, or a replication chunk boundary) replays every complete frame
// and reports ErrTruncated, as a *TruncatedError giving where the complete
// prefix ends: a recovering server cuts the wal back there (Store.Truncate)
// before appending, so later records are not stranded behind the torn
// bytes. A complete frame that does not parse — an unknown kind, bytes
// left after its last field — is ErrCorrupt, and recovery refuses it. A
// persist directory written by a build whose journal frames were
// gob-encoded (each payload starts with 0xff) is therefore refused, not
// read as an empty torn tail; so is one written by a build whose frames
// also carried a post index and a round marker's admitted vote pairs, or a
// round marker's replication term and quorum: each of its frames holds at
// least two fields more than this format reads.
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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/billboard"
	"repro/internal/codec"
)

// RecordKind discriminates journal records: a frame's first payload byte.
type RecordKind uint8

// Record kinds, one per Writer method family.
const (
	RecordPost RecordKind = iota + 1
	RecordEndRound
	RecordForceDone
	RecordProbe
	RecordDone
	RecordBarrier
	RecordRollback
	RecordSwarmOpen
)

// Record is one journal record. A frame encodes every field but Round, the
// number of round markers replayed before it — the round the record
// belongs to.
type Record struct {
	Kind    RecordKind
	Post    billboard.Post // valid when Kind == RecordPost
	Session uint64         // session the record belongs to (0: none recorded)
	Seq     uint64         // per-session request sequence number (0: none)
	Player  int            // valid for force-done, probe, done, barrier, swarm-open
	Object  int            // valid when Kind == RecordProbe
	// PlayerTo closes the member range [Player, PlayerTo) of a swarm
	// session (RecordSwarmOpen): one session that registered a contiguous
	// block of players at once. Recovery rebuilds the whole block's
	// membership from the single record.
	PlayerTo int
	Round    int
}

// maxFrame bounds a frame's declared size; anything larger is corruption.
const maxFrame = 1 << 20

// size is the exact payload size of r's frame.
func (r *Record) size() int {
	return 1 + codec.IntSize(r.Post.Player) + codec.IntSize(r.Post.Object) +
		codec.FloatSize(r.Post.Value) + 1 + codec.IntSize(r.Post.Round) +
		codec.UvarintSize(r.Session) + codec.UvarintSize(r.Seq) + codec.IntSize(r.Player) +
		codec.IntSize(r.Object) + codec.IntSize(r.PlayerTo)
}

// appendFrame appends r's frame — uvarint payload length, then the payload
// — to b and returns the extended slice.
func appendFrame(b []byte, r *Record) []byte {
	size := r.size()
	b = slices.Grow(b, codec.UvarintSize(uint64(size))+size)
	b = binary.AppendUvarint(b, uint64(size))
	b = append(b, byte(r.Kind))
	b = codec.AppendInt(b, r.Post.Player)
	b = codec.AppendInt(b, r.Post.Object)
	b = codec.AppendFloat(b, r.Post.Value)
	b = codec.AppendBool(b, r.Post.Positive)
	b = codec.AppendInt(b, r.Post.Round)
	b = binary.AppendUvarint(b, r.Session)
	b = binary.AppendUvarint(b, r.Seq)
	b = codec.AppendInt(b, r.Player)
	b = codec.AppendInt(b, r.Object)
	return codec.AppendInt(b, r.PlayerTo)
}

// parse fills r (Round aside) from a frame's payload.
func (r *Record) parse(p *codec.Parser) {
	r.Kind = RecordKind(p.Byte())
	if r.Kind < RecordPost || r.Kind > RecordSwarmOpen {
		p.Fail("unknown record kind %#x", byte(r.Kind))
	}
	r.Post.Player = p.Int()
	r.Post.Object = p.Int()
	r.Post.Value = p.Float()
	r.Post.Positive = p.Bool()
	r.Post.Round = p.Int()
	r.Session = p.Uvarint()
	r.Seq = p.Uvarint()
	r.Player = p.Int()
	r.Object = p.Int()
	r.PlayerTo = p.Int()
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
// writes them all in one Write, syncing at most once.
type Writer struct {
	w      io.Writer
	frames []byte // encoded frames awaiting the underlying Write
	marker bool   // frames hold a round marker or rollback
	batch  bool   // between Begin and Flush
	err    error  // first write error; subsequent calls fail fast
	sync   func() error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// SetSync installs a sync hook (typically os.File.Sync) invoked after
// every write that holds a round marker or rollback: a machine crash loses
// at most the uncommitted round, which the synchrony contract discards
// anyway. Records between commits ride in the OS page cache, durable across
// a process kill but not across a power cut.
func (w *Writer) SetSync(sync func() error) {
	w.sync = sync
}

// Begin opens a batch: the records appended until Flush reach the
// underlying stream together, in one Write. The caller must Flush before
// anything else can write through this Writer.
func (w *Writer) Begin() { w.batch = true }

// Flush closes a batch, writing its records in one Write (none when the
// batch is empty) and syncing once if it holds a round marker or rollback. Records encoded before a
// failure are discarded with the batch; the error is sticky.
func (w *Writer) Flush() error {
	w.batch = false
	return w.flush()
}

func (w *Writer) write(rec Record) error {
	if w.err != nil {
		return w.err
	}
	w.frames = appendFrame(w.frames, &rec)
	w.marker = w.marker || rec.Kind == RecordEndRound || rec.Kind == RecordRollback
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
	if w.sync != nil && marker {
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
	return w.write(Record{Kind: RecordPost, Post: post, Session: session, Seq: seq})
}

// EndRound records a round boundary.
func (w *Writer) EndRound() error {
	return w.write(Record{Kind: RecordEndRound})
}

// ForceDone records a barrier-deadline decision: the server deregistered
// player as a straggler so the round could commit. Journaling the decision
// keeps crash recovery consistent — a recovered server refuses to let a
// force-done player rejoin a run it was already expelled from.
func (w *Writer) ForceDone(player int) error {
	return w.write(Record{Kind: RecordForceDone, Player: player})
}

// Probe records a charged probe before its response is sent — the
// write-ahead half of the exactly-once billing contract: a probe is
// charged iff its record is in the journal.
func (w *Writer) Probe(session, seq uint64, player, object int) error {
	return w.write(Record{Kind: RecordProbe, Session: session, Seq: seq, Player: player, Object: object})
}

// Done records a player's voluntary deregistration.
func (w *Writer) Done(session, seq uint64, player int) error {
	return w.write(Record{Kind: RecordDone, Session: session, Seq: seq, Player: player})
}

// Barrier records a player's arrival at the round barrier. Buffered like a
// post: it binds only when the round's marker follows.
func (w *Writer) Barrier(session, seq uint64, player int) error {
	return w.write(Record{Kind: RecordBarrier, Session: session, Seq: seq, Player: player})
}

// Rollback marks that a recovering server discarded the records since the
// last round marker (the uncommitted tail of a crashed run). Replays honor
// it by dropping their pending buffers, so posts re-executed after the
// restart are not double-applied by the next recovery.
func (w *Writer) Rollback() error {
	return w.write(Record{Kind: RecordRollback})
}

// SwarmOpen records the registration of a swarm session: one session that
// registered every player in [from, to) at once. Applies immediately, like
// registration itself; recovery rebuilds the block's membership and session
// binding from this single record.
func (w *Writer) SwarmOpen(session uint64, from, to int) error {
	return w.write(Record{Kind: RecordSwarmOpen, Session: session, Player: from, PlayerTo: to})
}

// Err returns the Writer's first write error (nil while healthy).
func (w *Writer) Err() error { return w.err }

// ErrTruncated marks a journal whose final frame is incomplete — the torn
// tail of a write cut short by a crash, or of a replication chunk boundary.
// Every complete frame before it was delivered, and the error is a
// *TruncatedError saying where they end.
var ErrTruncated = errors.New("journal: truncated tail")

// ErrCorrupt marks a complete frame that does not parse: an impossible
// length, an unknown kind (a gob frame of an earlier build starts with
// 0xff), or bytes left after its last field.
// Dropping a tail does not repair such a journal.
var ErrCorrupt = errors.New("journal: corrupt frame")

// TruncatedError reports a torn final frame. Complete is the length of the
// journal's complete prefix: where a recovering store cuts its wal back to
// before it appends.
type TruncatedError struct {
	Complete int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("%v after %d complete bytes", ErrTruncated, e.Complete)
}

// Is makes errors.Is(err, ErrTruncated) hold.
func (e *TruncatedError) Is(target error) bool { return target == ErrTruncated }

// ReplayRecords reads a journal and invokes fn for every record, stopping
// cleanly at EOF. An incomplete final frame is reported as a
// *TruncatedError (ErrTruncated) after every complete frame before it has
// been delivered; a complete frame that does not parse stops the replay
// with ErrCorrupt. Frames are parsed out of one reused buffer, which no
// delivered record aliases. Records are delivered raw: the round buffering
// that discards an uncommitted tail is the recovering server's job.
func ReplayRecords(r io.Reader, fn func(Record) error) error {
	br := bufio.NewReader(r)
	var frame []byte
	var off int64 // end of the last complete frame
	round := 0
	for {
		head, err := br.Peek(binary.MaxVarintLen64)
		if len(head) == 0 {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("journal: %w", err)
		}
		size, n := binary.Uvarint(head)
		if n == 0 && len(head) < binary.MaxVarintLen64 { // the bytes end inside the length
			if err != io.EOF {
				return fmt.Errorf("journal: %w", err)
			}
			return &TruncatedError{Complete: off}
		}
		if n <= 0 || (n > 1 && head[n-1] == 0) || size == 0 || size > maxFrame {
			return fmt.Errorf("%w at offset %d: frame length %x", ErrCorrupt, off, head[:max(n, -n, 1)])
		}
		br.Discard(n) // peeked above: cannot fail
		frame = slices.Grow(frame[:0], int(size))[:size]
		if _, err := io.ReadFull(br, frame); err == io.EOF || err == io.ErrUnexpectedEOF {
			return &TruncatedError{Complete: off}
		} else if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		var rec Record
		p := codec.NewParser(frame)
		rec.parse(&p)
		if err := p.Err(); err != nil {
			return fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, err)
		}
		if p.Len() != 0 {
			return fmt.Errorf("%w at offset %d: %d bytes after the last field", ErrCorrupt, off, p.Len())
		}
		rec.Round = round
		if err := fn(rec); err != nil {
			return err
		}
		if rec.Kind == RecordEndRound {
			round++
		}
		off += int64(n) + int64(size)
	}
}

// Package wire defines the client/server protocol of the networked
// billboard service (internal/server, internal/client): length-prefixed,
// gob-encoded request/response frames over a TCP stream, one in flight per
// connection.
//
// The protocol realizes the billboard guarantees of §2.1 —
//
//   - identity tagging: a connection authenticates once (Hello with a
//     player id and token); every post is stamped server-side with that
//     identity, so players cannot spoof each other;
//   - timestamps: the server stamps posts with its round counter;
//   - append-only: there is no delete or amend request;
//
// and the synchrony §1.2 says timestamps can simulate: an arrival (ReqEpoch,
// or a ReqPostBatch that ends the round) stamps "I have finished every round
// below Epoch" and is answered once the server has committed those rounds —
// which happens when every active player has arrived past them.
//
// Version 2 adds fault tolerance to the transport:
//
//   - framing: every message is one self-contained frame (uvarint length +
//     gob payload), so a torn write is detected as a clean decode error on
//     the peer instead of silently desynchronizing a shared gob stream;
//   - sessions: the client picks a session id at first Hello and repeats it
//     on every request; a reconnecting client re-Hellos with the same id to
//     resume its registration within the server's grace window;
//   - sequence numbers: every post-Hello request carries a per-session
//     sequence number; the server remembers the last executed sequence and
//     its response, so a retried request (response lost in transit) replays
//     the recorded response instead of executing twice — a retried Probe
//     never pays twice.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// ReqType enumerates request kinds.
type ReqType uint8

// Request kinds.
const (
	// ReqHello authenticates the connection as a player (or resumes the
	// session named by Request.Session after a disconnect).
	ReqHello ReqType = iota + 1
	// ReqProbe probes an object: the server reveals its value (and, with
	// local testing, its goodness) and charges the cost.
	ReqProbe
	// ReqPost appends a report to the billboard (committed at round end).
	ReqPost
	// ReqVotes reads a player's current committed votes.
	ReqVotes
	// ReqVotedObjects reads the distinct objects holding votes.
	ReqVotedObjects
	// ReqVoteCount reads an object's current vote count.
	ReqVoteCount
	// ReqNegCount reads an object's negative-report count.
	ReqNegCount
	// ReqWindow counts vote events per object in a round window.
	ReqWindow
	// ReqDone deregisters the caller (it halted).
	ReqDone
	// ReqPostBatch (protocol v3) appends a whole round's posts in one
	// frame and, when Request.EndRound is set, is also the caller's arrival
	// at Request.Epoch — collapsing O(posts) round-trips plus the arrival
	// into one.
	ReqPostBatch
	// ReqProbeBatch (protocol v7) probes on behalf of many players of a
	// swarm session in one frame: Request.Probes lists (player, object)
	// pairs, the response's ProbeResults answers them in order, and each
	// probe is charged to its own player exactly once.
	ReqProbeBatch
	// ReqSwarmDone (protocol v7) deregisters the listed players of a swarm
	// session (they halted); the remaining players keep the session alive.
	ReqSwarmDone
	// ReqVoteBatch (protocol v7) reads the committed votes of every player
	// listed in Request.Players in one frame; each returned VoteMsg names
	// its player. The swarm driver prefetches a whole advice round's vote
	// lookups this way instead of one ReqVotes round-trip per player.
	ReqVoteBatch
	// ReqEpoch is the arrival frame: Request.Epoch carries the caller's
	// stamp ("I have finished every round below this", at least 1), and
	// the server answers once its open round has reached the stamp. The
	// response's Round is that round. Stamps are monotone, so a resent or
	// stale arrival is harmless: if its round already committed it is
	// answered at once.
	ReqEpoch
)

// String returns the request kind name.
func (t ReqType) String() string {
	switch t {
	case ReqHello:
		return "hello"
	case ReqProbe:
		return "probe"
	case ReqPost:
		return "post"
	case ReqVotes:
		return "votes"
	case ReqVotedObjects:
		return "voted-objects"
	case ReqVoteCount:
		return "vote-count"
	case ReqNegCount:
		return "neg-count"
	case ReqWindow:
		return "window"
	case ReqDone:
		return "done"
	case ReqPostBatch:
		return "post-batch"
	case ReqProbeBatch:
		return "probe-batch"
	case ReqSwarmDone:
		return "swarm-done"
	case ReqVoteBatch:
		return "vote-batch"
	case ReqEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("ReqType(%d)", uint8(t))
	}
}

// Version is the wire protocol version. Hello carries it; the server
// rejects mismatches so that incompatible binaries fail loudly at
// connection time instead of corrupting a run. Version 2 introduced framed
// messages, session ids, and request sequence numbers; version 3 added
// batched round posts (ReqPostBatch) and server-side read caching, cutting
// a player's round to O(1) frames; version 4 adds shard routing (the server
// advertises its shard count at Hello, lane connections carry a shard id,
// batch posts carry a client-assigned order index) and typed error codes;
// version 5 adds coordinator replication — replica-to-replica append / ack /
// heartbeat / vote / fetch frames (RepMsg, RepAck) and the NotLeader
// redirect (CodeNotLeader plus Response.Leader), which lets a client that
// reached a follower re-dial the advertised leader instead of failing;
// version 6 makes request/response gob streams connection-scoped
// (StreamEncoder/StreamDecoder): each peer keeps one encoder and one decoder
// per connection, so gob type descriptors cross the wire once per connection
// instead of once per frame and neither side recompiles codecs per message.
// Frames stay length-prefixed (torn writes detect cleanly, sizes stay
// capped) but are no longer individually self-contained — a v5 peer cannot
// decode a v6 stream past its first frame, hence the bump.
//
// Version 7 adds swarm sessions: one session registering a contiguous
// player range [Player, PlayerTo) under a server-configured swarm token
// (Hello with Swarm set), batched probes charged per player
// (ReqProbeBatch), posts carrying an explicit PostMsg.Player (honored only
// on swarm sessions — ordinary sessions keep server-stamped identity),
// atomic range barriers (a swarm Barrier arrives for every still-active
// player of the range), and batched deregistration (ReqSwarmDone). Swarm
// requests are idempotent-or-reconstructible, so a swarm client may
// pipeline many frames per connection and resend the unacknowledged tail
// after a reconnect without a server-side response window.
//
// Version 8 added epoch mode: arrivals carry a lamport stamp
// (Request.Epoch) on the ReqEpoch frame, and window queries may ask for a
// sliding window relative to the current round (Request.Last) instead of
// absolute bounds.
//
// Version 9 has one arrival frame for both operation modes. The blocking
// barrier request and the Hello reply's mode field are gone, and the
// request kinds after ReqWindow moved down by one. An arrival is a ReqEpoch, or a ReqPostBatch
// with EndRound set, carrying an explicit target stamp (Epoch >= 1); the
// server answers it once the open round has reached the target, in either
// mode. The mode is server policy only: it decides what a round's deadline
// does to players that have not arrived. A client therefore never learns
// or branches on it.
const Version = 9

// Shard maps an object id onto one of shards lanes. It is the single
// shard-map definition shared by client and server: deterministic, seedless,
// and stable across processes, so both sides always agree on which lane owns
// an object. The mix is a splitmix64-style finalizer so that consecutive
// object ids spread across lanes instead of striping.
func Shard(object, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(object)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(shards))
}

// MaxFrame bounds one framed message's declared size; anything larger is
// treated as corruption, never allocated.
const MaxFrame = 1 << 20

// Request is the client→server message.
type Request struct {
	Type ReqType

	// Session is the client-chosen session id, carried on every request.
	// On Hello it either opens a fresh session (unknown id) or resumes a
	// disconnected one (known id) — which makes a retried Hello idempotent.
	Session uint64
	// Seq is the per-session request sequence number (1, 2, ...) of every
	// post-Hello request; Hello itself is unsequenced (Seq 0). The server
	// deduplicates on it: a repeat of the last sequence replays the
	// recorded response instead of executing again.
	Seq uint64

	// Hello fields.
	Player  int
	Token   string
	Version int

	// Probe / Post / VoteCount / NegCount target.
	Object int
	// Post payload.
	Value    float64
	Positive bool

	// Votes target.
	OfPlayer int

	// Window bounds [From, To). Last (protocol v8), when positive, asks
	// for the sliding window of the most recent Last closed rounds instead:
	// the server answers [round-Last, round) against its current round and
	// sets Response.Round so the caller knows which window it got.
	From, To int
	Last     int

	// PostBatch payload (protocol v3): the round's posts, applied in
	// order. EndRound, when true, makes the same frame the caller's
	// arrival at Epoch (the response is then the arrival's). The whole
	// batch executes under one sequence number, so the v2 dedup gives it
	// the same exactly-once retry semantics as a single request.
	Posts    []PostMsg
	EndRound bool

	// Shard routing (protocol v4). A lane Hello (Lane true) authenticates
	// the connection as a data-plane lane onto shard Shard: it shares the
	// primary session's player identity but registers no membership, and
	// accepts only shard-local post batches. On a lane ReqPostBatch, Shard
	// names the lane the batch targets; the server rejects posts whose
	// objects the shard map assigns elsewhere.
	Shard int
	Lane  bool

	// Swarm sessions (protocol v7). A swarm Hello (Swarm true) registers
	// the contiguous player range [Player, PlayerTo) under one session,
	// authenticated by the server-configured swarm token in Token instead
	// of per-player tokens. A lane Hello may also carry Swarm + the range,
	// making it a swarm lane that accepts posts for any player of the
	// range. PlayerTo is meaningful only with Swarm set.
	Swarm    bool
	PlayerTo int

	// ProbeBatch payload (protocol v7): per-player probes, answered in
	// order by Response.ProbeResults.
	Probes []ProbeMsg

	// SwarmDone payload (protocol v7): the players that halted.
	Players []int

	// Epoch (protocol v8) is the arrival's target stamp, meaningful on
	// ReqEpoch and on a ReqPostBatch with EndRound set: the player asserts
	// it has finished every round below Epoch. The server commits a round
	// once every active player's stamp has passed it. An arrival must
	// carry Epoch >= 1.
	Epoch int
}

// ProbeMsg is one probe inside a ReqProbeBatch frame: player probes object.
// The player must belong to the swarm session's range.
type ProbeMsg struct {
	Player int
	Object int
}

// ProbeRes answers one ProbeMsg: the object's value and (under local
// testing) its goodness. The cost charged is the object's public cost from
// the Hello payload; it is not repeated per result.
type ProbeRes struct {
	Value float64
	Good  bool
}

// PostMsg is one post inside a ReqPostBatch frame. The player identity is
// the session's authenticated player, never client-claimed.
type PostMsg struct {
	Object   int
	Value    float64
	Positive bool

	// Index (protocol v4) is the post's position in the player's original
	// round batch, assigned by the client before the batch is split across
	// shard lanes. The server commits a round's posts in (player, index)
	// order, so the global vote budget is consumed in the order the player
	// issued the posts regardless of which lanes carried them. Single-post
	// and v3-style requests leave it zero; the server then stamps arrival
	// order.
	Index int

	// Player (protocol v7) names the posting player on swarm sessions,
	// which carry many players' posts in one batch. It must lie in the
	// session's range; on ordinary sessions it is ignored and the
	// authenticated identity is stamped instead, so players still cannot
	// spoof each other.
	Player int
}

// VoteMsg mirrors billboard.Vote on the wire.
type VoteMsg struct {
	Player int
	Object int
	Round  int
	Value  float64
}

// Typed error sentinels (protocol v4). The server tags failure responses
// with a Code; Response.Error wraps the matching sentinel so callers can
// errors.Is instead of string-matching. The sentinels are re-exported on
// the public facade as repro.ErrSessionExpired etc.
var (
	// ErrSessionExpired marks a resume attempt whose session the server no
	// longer recognizes — the lease lapsed (or another session took the
	// player) and the player's registration is gone.
	ErrSessionExpired = errors.New("session expired")
	// ErrBarrierDeadline marks a player the barrier deadline force-Done'd
	// as a straggler: its round arrived too late and it may not rejoin.
	ErrBarrierDeadline = errors.New("barrier deadline exceeded")
	// ErrServerClosed marks a call that exhausted its retries without ever
	// reaching a live server. The server itself never answers "closed" — a
	// closing server drops connections so that a restarted generation can
	// pick the retry up transparently — so this sentinel is the client's
	// best-effort classification of a dead endpoint.
	ErrServerClosed = errors.New("server closed")
	// ErrNotLeader marks a request that reached a replica which is not the
	// current leader of its coordinator group (protocol v5). The response's
	// Leader field, when non-empty, names the client address to re-dial; the
	// client library follows it transparently.
	ErrNotLeader = errors.New("not the leader")
)

// Code values carried by Response.Code.
const (
	CodeNone            uint8 = 0
	CodeSessionExpired  uint8 = 1
	CodeBarrierDeadline uint8 = 2
	CodeNotLeader       uint8 = 3
)

// sentinelFor maps a response code to its sentinel (nil for CodeNone and
// unknown codes, which higher layers treat as plain server errors).
func sentinelFor(code uint8) error {
	switch code {
	case CodeSessionExpired:
		return ErrSessionExpired
	case CodeBarrierDeadline:
		return ErrBarrierDeadline
	case CodeNotLeader:
		return ErrNotLeader
	default:
		return nil
	}
}

// Response is the server→client message. Err is non-empty on failure; all
// other fields are request-specific.
type Response struct {
	Err string
	// Code (protocol v4) classifies Err for errors.Is; see sentinelFor.
	Code uint8

	// Hello reply: run configuration.
	N            int
	M            int
	LocalTesting bool
	Alpha        float64 // the assumed α the protocol should use
	Beta         float64 // the assumed β the protocol should use
	Costs        []float64

	// Probe reply.
	Value float64
	Good  bool
	Cost  float64

	// Reads.
	Votes   []VoteMsg
	Objects []int
	Count   int
	Counts  map[int]int

	// Round is the server's open round when it answered: on an arrival,
	// the round its target released; on Hello and every other request, the
	// current round.
	Round int

	// Shards (protocol v4) is the server's lane count, advertised on the
	// Hello reply so the client can route posts with Shard(object, Shards).
	Shards int

	// Leader (protocol v5) accompanies a CodeNotLeader rejection: the client
	// address of the replica currently leading the coordinator group, when
	// the answering follower knows it (empty otherwise — the client then
	// falls back to probing its configured fallback addresses).
	Leader string

	// ProbeResults (protocol v7) answers a ReqProbeBatch, one entry per
	// Request.Probes element, in order.
	ProbeResults []ProbeRes
}

// Error materializes the response error, if any. Responses tagged with a
// v4 code wrap the matching sentinel, so errors.Is(err, ErrSessionExpired)
// and friends work across the wire.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	if s := sentinelFor(r.Code); s != nil {
		return fmt.Errorf("billboard server: %s: %w", r.Err, s)
	}
	return fmt.Errorf("billboard server: %s", r.Err)
}

// encodeFrame writes v as one self-contained frame: uvarint length followed
// by a gob payload produced by a fresh encoder, so every frame decodes
// independently of connection history.
func encodeFrame(w io.Writer, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(buf.Len()))
	if _, err := w.Write(lenb[:n]); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// oneByteReader adapts an io.Reader into an io.ByteReader without buffering
// ahead (a bufio wrapper here would swallow bytes that belong to the next
// frame). Callers on hot paths pass a *bufio.Reader, which satisfies
// io.ByteReader directly.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(o.r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// decodeFrame reads one frame from r into v. Malformed or truncated input
// surfaces as an error, never a panic: gob's decoder is guarded so a
// hostile frame cannot kill the per-connection goroutine. A stream that
// ends cleanly before the first length byte returns io.EOF.
func decodeFrame(r io.Reader, v any) error {
	return decodeFrameCap(r, v, MaxFrame)
}

// decodeFrameCap is decodeFrame under an explicit size cap — the
// replication path (internal/wire/replica.go) carries whole snapshots and
// needs a larger bound than client frames.
func decodeFrameCap(r io.Reader, v any, maxSize uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("wire: decode panic: %v", p)
		}
	}()
	br, ok := r.(io.ByteReader)
	if !ok {
		br = oneByteReader{r}
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return io.EOF // clean end of stream, not corruption
		}
		return fmt.Errorf("wire: frame length: %w", err)
	}
	if size == 0 || size > maxSize {
		return fmt.Errorf("wire: implausible frame size %d", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return fmt.Errorf("wire: truncated frame: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// StreamEncoder writes framed messages through one connection-scoped gob
// encoder (protocol v6). The first Encode emits the value's type descriptors
// alongside it — that first frame is self-contained, which is what keeps
// single-frame peers (a follower's NotLeader redirect answers exactly one
// request) interoperable — and every later frame reuses them, so the
// per-frame codec-compile cost of the stateless helpers disappears from the
// hot path. Not safe for concurrent use; callers serialize per connection.
type StreamEncoder struct {
	w    io.Writer
	buf  bytes.Buffer
	enc  *gob.Encoder
	lenb [binary.MaxVarintLen64]byte
	err  error // first error; the stream is desynced after one, fail fast
}

// NewStreamEncoder binds a stream encoder to w for the connection's life.
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	e := &StreamEncoder{w: w}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// Encode writes v as one length-prefixed frame on the shared gob stream.
func (e *StreamEncoder) Encode(v any) error {
	if e.err != nil {
		return e.err
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		e.err = fmt.Errorf("wire: encode: %w", err)
		return e.err
	}
	n := binary.PutUvarint(e.lenb[:], uint64(e.buf.Len()))
	if _, err := e.w.Write(e.lenb[:n]); err != nil {
		e.err = fmt.Errorf("wire: %w", err)
		return e.err
	}
	if _, err := e.w.Write(e.buf.Bytes()); err != nil {
		e.err = fmt.Errorf("wire: %w", err)
		return e.err
	}
	return nil
}

// EncodeRequest writes req as one frame on the stream.
func (e *StreamEncoder) EncodeRequest(req *Request) error { return e.Encode(req) }

// EncodeResponse writes resp as one frame on the stream.
func (e *StreamEncoder) EncodeResponse(resp *Response) error { return e.Encode(resp) }

// frameReader feeds the current frame's bytes to the stream decoder's gob
// decoder. It implements io.ByteReader so gob reads it directly instead of
// wrapping it in a bufio.Reader that would blur frame boundaries.
type frameReader struct {
	data []byte
	pos  int
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.pos >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.pos:])
	f.pos += n
	return n, nil
}

func (f *frameReader) ReadByte() (byte, error) {
	if f.pos >= len(f.data) {
		return 0, io.EOF
	}
	b := f.data[f.pos]
	f.pos++
	return b, nil
}

// StreamDecoder reads framed messages through one connection-scoped gob
// decoder (protocol v6), the receiving half of StreamEncoder. Each frame is
// still length-delimited and size-capped, so a torn write or hostile length
// surfaces as a clean error; the gob decoder is guarded against panics the
// same way the stateless path is. A decode error (other than a clean EOF
// between frames) is sticky: the shared type-descriptor stream cannot be
// resynchronized, so the connection must be dropped.
type StreamDecoder struct {
	r     io.Reader
	br    io.ByteReader
	fr    frameReader
	dec   *gob.Decoder
	frame []byte // reused frame buffer
	err   error
}

// NewStreamDecoder binds a stream decoder to r for the connection's life.
// Prefer passing a reader that implements io.ByteReader (e.g. *bufio.Reader).
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	d := &StreamDecoder{r: r}
	if br, ok := r.(io.ByteReader); ok {
		d.br = br
	} else {
		d.br = oneByteReader{r}
	}
	d.dec = gob.NewDecoder(&d.fr)
	return d
}

// Decode reads one frame into v. A stream that ends cleanly between frames
// returns io.EOF. The caller must pass a zeroed target: gob leaves fields
// absent from the frame untouched (DecodeRequest/DecodeResponse do this).
func (d *StreamDecoder) Decode(v any) (err error) {
	if d.err != nil {
		return d.err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("wire: decode panic: %v", p)
		}
		if err != nil && err != io.EOF {
			d.err = err
		}
	}()
	size, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF // clean end of stream, not corruption
		}
		return fmt.Errorf("wire: frame length: %w", err)
	}
	if size == 0 || size > MaxFrame {
		return fmt.Errorf("wire: implausible frame size %d", size)
	}
	if uint64(cap(d.frame)) < size {
		d.frame = make([]byte, size)
	}
	buf := d.frame[:size]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return fmt.Errorf("wire: truncated frame: %w", err)
	}
	d.fr.data, d.fr.pos = buf, 0
	if err := d.dec.Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	if d.fr.pos != len(d.fr.data) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(d.fr.data)-d.fr.pos)
	}
	return nil
}

// DecodeRequest reads one request frame from the stream into req, zeroing it
// first so a reused struct never leaks fields between frames.
func (d *StreamDecoder) DecodeRequest(req *Request) error {
	*req = Request{}
	return d.Decode(req)
}

// DecodeResponse reads one response frame from the stream into resp.
func (d *StreamDecoder) DecodeResponse(resp *Response) error {
	*resp = Response{}
	return d.Decode(resp)
}

// EncodeRequest writes req as one self-contained frame (fresh codec). The
// connection hot paths use StreamEncoder; this form remains for single-frame
// exchanges and tooling.
func EncodeRequest(w io.Writer, req *Request) error {
	return encodeFrame(w, req)
}

// DecodeRequest reads one request frame from r. Prefer passing a reader
// that implements io.ByteReader (e.g. *bufio.Reader) on connection paths.
func DecodeRequest(r io.Reader) (*Request, error) {
	var req Request
	if err := decodeFrame(r, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeResponse writes resp as one frame.
func EncodeResponse(w io.Writer, resp *Response) error {
	return encodeFrame(w, resp)
}

// DecodeResponse reads one response frame from r.
func DecodeResponse(r io.Reader) (*Response, error) {
	var resp Response
	if err := decodeFrame(r, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

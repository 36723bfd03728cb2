// Package wire defines the client/server protocol of the networked
// billboard service (internal/server, internal/client): length-prefixed
// request/response frames over a TCP stream, in a hand-written codec
// (codec.go).
//
// The protocol realizes the billboard guarantees of §2.1 —
//
//   - identity tagging: a connection authenticates once (Hello), and the
//     credential it presents opens a player range: a player's own token
//     opens [Player, Player+1), the server's swarm token any block
//     [Player, PlayerTo). Every probe, post and done names its player, and
//     the server rejects one outside the session's range, so players cannot
//     spoof each other;
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
//   - framing: every message is one length-prefixed frame (uvarint length +
//     payload), so a torn write is detected as a clean decode error on
//     the peer instead of silently desynchronizing the stream;
//   - sessions: the client picks a session id at first Hello and repeats it
//     on every request; a reconnecting client re-Hellos with the same id to
//     resume its registration within the server's grace window;
//   - sequence numbers: every post-Hello request carries a per-session
//     sequence number, so a retried request (response lost in transit)
//     never executes twice — a retried probe never pays twice. How a resend
//     is answered depends on the credential (see Request.Seq).
//
// Ownership: a decoded value never aliases the decoder's frame buffer, and
// belongs to the caller, with one exception. A StreamDecoder decodes each
// request's Posts, Probes and Players into the arrays of the request it
// decoded before, so a decoded request's entry slices are valid until the
// next DecodeRequest on the same decoder. The server, which decodes every
// request of a connection on one decoder, is done with them before it
// reads the next frame: the board copies each post it buffers, and the
// journal encodes its records at once. The stateless DecodeRequest makes a
// fresh decoder per call, so its requests own their slices.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
)

// ReqType enumerates request kinds.
type ReqType uint8

// Request kinds.
const (
	// ReqHello authenticates the connection for a player range (or resumes
	// the session named by Request.Session after a disconnect).
	ReqHello ReqType = iota + 1
	// ReqVotedObjects reads the distinct objects holding votes.
	ReqVotedObjects
	// ReqVoteCount reads an object's current vote count.
	ReqVoteCount
	// ReqNegCount reads an object's negative-report count.
	ReqNegCount
	// ReqWindow counts vote events per object in a round window.
	ReqWindow
	// ReqDone deregisters the players listed in Request.Players (they
	// halted); each must lie in the session's range. The range's remaining
	// players keep the session alive.
	ReqDone
	// ReqPostBatch (protocol v3) appends posts in one frame, each naming
	// its player in PostMsg.Player, and, when Request.EndRound is set, is
	// also the caller's arrival at Request.Epoch — collapsing a round's
	// posts plus the arrival into one frame.
	ReqPostBatch
	// ReqProbeBatch (protocol v7) probes in one frame: Request.Probes lists
	// (player, object) pairs, the response's ProbeResults answers them in
	// order, and each probe is charged to its own player exactly once.
	ReqProbeBatch
	// ReqVoteBatch (protocol v7) reads the committed votes of every player
	// listed in Request.Players in one frame; each returned VoteMsg names
	// its player. Any player's votes may be read.
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
// a player's round to O(1) frames; version 4 added shard routing (the server
// advertised its shard count at Hello, lane connections carried a shard id,
// batch posts carried a client-assigned order index; all gone in version 12)
// and typed error codes;
// version 5 adds coordinator replication — replica-to-replica append / ack /
// heartbeat / vote / fetch frames (RepMsg, RepAck) and the NotLeader
// redirect (CodeNotLeader plus Response.Leader), which lets a client that
// reached a follower re-dial the advertised leader instead of failing;
// version 6 made request/response gob streams connection-scoped
// (StreamEncoder/StreamDecoder): each peer keeps one encoder and one decoder
// per connection, so gob type descriptors crossed the wire once per
// connection instead of once per frame. From version 6 to version 10 only a
// connection's first frame was self-contained; version 11 makes every frame
// self-contained again.
//
// Version 7 adds swarm sessions: one session registering a contiguous
// player range [Player, PlayerTo) under a server-configured swarm token
// (Hello with Swarm set), batched probes charged per player
// (ReqProbeBatch), posts carrying an explicit PostMsg.Player (honored only
// on swarm sessions until version 10), atomic range arrivals (a swarm
// session's arrival stamps every still-active player of the range), batched
// deregistration, and batched vote reads (ReqVoteBatch). Swarm requests are
// idempotent-or-reconstructible, so a swarm client may pipeline many frames
// per connection and resend the unacknowledged tail after a reconnect
// without a server-side response window.
//
// Version 8 added epoch mode: arrivals carry a lamport stamp
// (Request.Epoch) on the ReqEpoch frame, and window queries may ask for a
// sliding window relative to the current round (Request.Last) instead of
// absolute bounds.
//
// Version 9 has one arrival frame for both operation modes. The blocking
// barrier request and the Hello reply's mode field are gone, and the
// request kinds after ReqWindow moved down by one. An arrival is a
// ReqEpoch, or a ReqPostBatch with EndRound set, carrying an explicit
// target stamp (Epoch >= 1); the server answers it once the open round has
// reached the target, in either mode. The mode is server policy only: it
// decides what a round's deadline does to players that have not arrived. A
// client therefore never learns or branches on it.
//
// Version 10 has one session kind. Every session speaks for a player range:
// a player's own token opens [Player, Player+1), the swarm token any
// [Player, PlayerTo). Every session uses the batch frames, whose entries
// name their player, and the server checks each named player against the
// range. The single-player probe, post and vote-read frames are gone,
// ReqDone takes the list of departing players, and the request kinds
// number ten.
//
// Version 11 replaces gob with a hand-written codec for the four framed
// messages (Request, Response, RepMsg, RepAck; see codec.go): every field in
// declaration order, varints, no reflection and no type descriptors. Every
// frame is self-contained, so a stream decoder reads a single-frame peer's
// frames and the reverse, and the StreamEncoder writes each frame, length
// and payload together, in one Write. The frames keep their uvarint length,
// the MaxFrame and MaxRepFrame caps, and clean, sticky errors on torn,
// oversized, garbage and trailing-byte input. A v10 peer cannot parse a v11
// frame, hence the bump.
//
// Version 12 has one post path. A sharded server takes posts on the primary
// connection and splits each batch by lane itself, stamping each post's
// commit order, so the lane Hello and the shard routing fields are gone:
// Request.Lane, Request.Shard, PostMsg.Index and Response.Shards. Clients
// cannot tell a sharded server from an unsharded one.
//
// Version 13 replicates one stream. The server keeps one board and one
// journal store (sharding is gone), so a replica group streams that one
// store: RepMsg.Stream, RepMsg.Offsets and RepAck.Offsets are gone, and a
// vote request, and the replies to a sync or a vote, carry the stream
// position in Offset. Client frames are unchanged; a v12 replica cannot
// parse a v13 replication frame, hence the bump.
const Version = 13

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
	// deduplicates on it, and how it answers a resent sequence number
	// depends on the credential that opened the session. A player's own
	// session keeps one request in flight and records its last response: a
	// repeat of the last sequence replays that response, whatever the resend
	// names. A swarm session may pipeline, and the server answers a resend
	// by recomputation without executing it again.
	Seq uint64

	// Hello fields: Player is the first player of the range the session
	// opens, Token the credential presented for it.
	Player  int
	Token   string
	Version int

	// VoteCount / NegCount target.
	Object int

	// Window bounds [From, To). Last (protocol v8), when positive, asks
	// for the sliding window of the most recent Last closed rounds instead:
	// the server answers [round-Last, round) against its current round and
	// sets Response.Round so the caller knows which window it got.
	From, To int
	Last     int

	// PostBatch payload (protocol v3): the posts, applied in order.
	// EndRound, when true, makes the same frame the caller's arrival at
	// Epoch (the response is then the arrival's). The whole batch executes
	// under one sequence number, so a retry never re-applies any post.
	Posts    []PostMsg
	EndRound bool

	// Swarm sessions (protocol v7). A swarm Hello (Swarm true) opens the
	// contiguous player range [Player, PlayerTo) under one session,
	// authenticated by the server-configured swarm token in Token instead
	// of a player's own token. PlayerTo is meaningful only with Swarm set:
	// without it the range is the single player [Player, Player+1).
	Swarm    bool
	PlayerTo int

	// ProbeBatch payload (protocol v7): per-player probes, answered in
	// order by Response.ProbeResults.
	Probes []ProbeMsg

	// Done and VoteBatch payload: the players that halted, or whose votes
	// are read.
	Players []int

	// Epoch (protocol v8) is the arrival's target stamp, meaningful on
	// ReqEpoch and on a ReqPostBatch with EndRound set: the player asserts
	// it has finished every round below Epoch. The server commits a round
	// once every active player's stamp has passed it. An arrival must
	// carry Epoch >= 1.
	Epoch int
}

// ProbeMsg is one probe inside a ReqProbeBatch frame: player probes object.
// The player must belong to the session's range.
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

// PostMsg is one post inside a ReqPostBatch frame.
type PostMsg struct {
	Object   int
	Value    float64
	Positive bool

	// Player (protocol v7) names the posting player. It must lie in the
	// session's range (since v10 on every session), so players cannot
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

	// Hello reply: run configuration. Costs are the objects' public probe
	// costs; a probe's charge is its object's entry here.
	N            int
	M            int
	LocalTesting bool
	Alpha        float64 // the assumed α the protocol should use
	Beta         float64 // the assumed β the protocol should use
	Costs        []float64

	// Reads.
	Votes   []VoteMsg
	Objects []int
	Count   int
	Counts  map[int]int

	// Round is the server's open round when it answered: on an arrival,
	// the round its target released; on Hello and every other request, the
	// current round.
	Round int

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

// StreamEncoder writes framed messages to one connection. Each frame is
// sized exactly, appended into a buffer the encoder keeps for the
// connection's next frames, and written with one Write: length and payload
// together. Frames are self-contained (protocol v11), so the encoder keeps no
// codec state, only the buffer. Not safe for concurrent use; callers
// serialize per connection.
type StreamEncoder struct {
	w   io.Writer
	buf []byte
	err error // first error; the stream is desynced after one, fail fast
}

// NewStreamEncoder binds a stream encoder to w for the connection's life.
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	return &StreamEncoder{w: w}
}

// begin returns the encode buffer holding the length prefix of a size-byte
// payload, with room for exactly that payload.
func (e *StreamEncoder) begin(size int) []byte {
	total := codec.UvarintSize(uint64(size)) + size
	if cap(e.buf) < total {
		e.buf = make([]byte, 0, total)
	}
	return binary.AppendUvarint(e.buf[:0], uint64(size))
}

// flush writes the frame begin started and the message's appendTo finished.
// A buffer above MaxFrame (a replica snapshot) is not kept.
func (e *StreamEncoder) flush(frame []byte, size int) error {
	if _, n := binary.Uvarint(frame); len(frame)-n != size {
		e.err = fmt.Errorf("wire: encoded %d payload bytes, sized %d", len(frame)-n, size)
		return e.err
	}
	if cap(frame) > MaxFrame+binary.MaxVarintLen64 {
		e.buf = nil
	}
	if _, err := e.w.Write(frame); err != nil {
		e.err = fmt.Errorf("wire: %w", err)
		return e.err
	}
	return nil
}

// EncodeRequest writes req as one frame on the stream.
func (e *StreamEncoder) EncodeRequest(req *Request) error {
	if e.err != nil {
		return e.err
	}
	size := req.size()
	return e.flush(req.appendTo(e.begin(size)), size)
}

// EncodeResponse writes resp as one frame on the stream.
func (e *StreamEncoder) EncodeResponse(resp *Response) error {
	if e.err != nil {
		return e.err
	}
	size := resp.size()
	return e.flush(resp.appendTo(e.begin(size)), size)
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

// StreamDecoder reads framed messages from one connection, the receiving
// half of StreamEncoder. Each frame is length-delimited and size-capped and
// its payload is parsed with every length checked against the bytes left,
// so a torn write, a hostile length, garbage or trailing bytes surface as a
// clean error, never a panic or an outsized allocation. A decode error
// (other than a clean EOF between frames) is sticky: the stream's frame
// boundaries can no longer be trusted, so the connection must be dropped.
// Decoded values never alias the decoder's frame buffer, which it reuses.
// A decoded request's entry slices are reused by the next DecodeRequest
// (the package doc's ownership rule).
type StreamDecoder struct {
	r     io.Reader
	br    io.ByteReader
	limit uint64 // frame size cap: MaxFrame, or MaxRepFrame on replica links
	frame []byte // reused frame buffer, up to MaxFrame bytes
	err   error

	// The entry arrays of the requests decoded so far, which the next
	// DecodeRequest decodes into.
	posts   []PostMsg
	probes  []ProbeMsg
	players []int
}

// NewStreamDecoder binds a stream decoder to r for the connection's life.
// Prefer passing a reader that implements io.ByteReader (e.g. *bufio.Reader).
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return newStreamDecoder(r, MaxFrame)
}

func newStreamDecoder(r io.Reader, maxSize uint64) *StreamDecoder {
	d := &StreamDecoder{r: r, limit: maxSize}
	if br, ok := r.(io.ByteReader); ok {
		d.br = br
	} else {
		d.br = oneByteReader{r}
	}
	return d
}

// next reads one frame and returns a parser over its payload after the kind
// byte, which must be kind. A stream that ends cleanly between frames
// returns io.EOF.
func (d *StreamDecoder) next(kind byte) (codec.Parser, error) {
	if d.err != nil {
		return codec.Parser{}, d.err
	}
	size, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			return codec.Parser{}, io.EOF // clean end of stream, not corruption
		}
		return codec.Parser{}, d.fail(fmt.Errorf("wire: frame length: %w", err))
	}
	if size == 0 || size > d.limit {
		return codec.Parser{}, d.fail(fmt.Errorf("wire: implausible frame size %d", size))
	}
	buf := d.frame
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
		if size <= MaxFrame {
			// Larger frames (replica snapshots) are read into a buffer of
			// their own, so the connection does not keep it.
			d.frame = buf
		}
	}
	buf = buf[:size]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return codec.Parser{}, d.fail(fmt.Errorf("wire: truncated frame: %w", err))
	}
	if buf[0] != kind {
		return codec.Parser{}, d.fail(fmt.Errorf("wire: frame kind %d, want %d", buf[0], kind))
	}
	return codec.NewParser(buf[1:]), nil
}

// done ends a frame's parse: the parser's error, or bytes it left unread,
// fail the stream.
func (d *StreamDecoder) done(p *codec.Parser) error {
	if err := p.Err(); err != nil {
		return d.fail(fmt.Errorf("wire: %w", err))
	}
	if p.Len() != 0 {
		return d.fail(fmt.Errorf("wire: %d trailing bytes after frame", p.Len()))
	}
	return nil
}

func (d *StreamDecoder) fail(err error) error {
	d.err = err
	return err
}

// DecodeRequest reads one request frame from the stream into req, zeroing it
// first so a reused struct never leaks fields between frames. Its Posts,
// Probes and Players are decoded into the arrays of earlier requests, so
// they are valid only until the next DecodeRequest on this decoder: a
// caller that keeps an entry past that copies it.
func (d *StreamDecoder) DecodeRequest(req *Request) error {
	*req = Request{Posts: d.posts, Probes: d.probes, Players: d.players}
	p, err := d.next(kindRequest)
	if err != nil {
		*req = Request{}
		return err
	}
	req.parse(&p)
	d.posts = keep(d.posts, req.Posts)
	d.probes = keep(d.probes, req.Probes)
	d.players = keep(d.players, req.Players)
	return d.done(&p)
}

// keep returns the array of decoded when a decode allocated one, else old.
func keep[T any](old, decoded []T) []T {
	if cap(decoded) > cap(old) {
		return decoded[:0]
	}
	return old
}

// DecodeResponse reads one response frame from the stream into resp,
// zeroing it first.
func (d *StreamDecoder) DecodeResponse(resp *Response) error {
	*resp = Response{}
	p, err := d.next(kindResponse)
	if err != nil {
		return err
	}
	resp.parse(&p)
	return d.done(&p)
}

// EncodeRequest writes req as one frame. Frames are self-contained, so this
// single-frame form and a stream encoder write the same bytes; the
// connection hot paths keep a StreamEncoder for its reused buffer.
func EncodeRequest(w io.Writer, req *Request) error {
	return NewStreamEncoder(w).EncodeRequest(req)
}

// DecodeRequest reads one request frame from r, reading no byte past it.
// Prefer passing a reader that implements io.ByteReader (e.g.
// *bufio.Reader) on connection paths.
func DecodeRequest(r io.Reader) (*Request, error) {
	var req Request
	if err := NewStreamDecoder(r).DecodeRequest(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeResponse writes resp as one frame.
func EncodeResponse(w io.Writer, resp *Response) error {
	return NewStreamEncoder(w).EncodeResponse(resp)
}

// DecodeResponse reads one response frame from r.
func DecodeResponse(r io.Reader) (*Response, error) {
	var resp Response
	if err := NewStreamDecoder(r).DecodeResponse(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

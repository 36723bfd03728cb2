package wire

// Replica-to-replica frames (protocol v5; three kinds since v16). A
// coordinator group replicates the leader's journal store as one raw byte
// stream. The leader dials each follower and drives a strictly serial
// request/ack conversation of appends, while candidates dial peers for votes
// and catch-up fetches during an election. Every frame carries the sender's
// term; a receiver holding a higher term refuses, which is the fencing rule
// that makes a deposed leader step down instead of splitting the group.
//
// One append does the work of Raft's AppendEntries: with data it extends
// the follower's stream, empty at the tail it is the heartbeat, empty as a
// connection's first message it probes the follower's position, and with
// Reset set it first rotates the follower's store behind a snapshot. A
// RepFetch reply has the same shape (Reset, Offset, Snapshot, Data), so
// either side applies a received segment the same way.
//
// The framing is the client protocol's frame codec (protocol v11): each
// side of a replica link keeps one StreamEncoder and one StreamDecoder for
// the connection's life, for their reused buffers; every frame is
// self-contained and goes out in one Write. Frames stay length-prefixed, but
// with a larger size cap (NewRepStreamDecoder): a reset carries a full
// service snapshot, which can legitimately exceed the 1 MiB client-frame
// bound.

import (
	"fmt"
	"io"
)

// RepType enumerates replica-to-replica message kinds.
type RepType uint8

const (
	// RepAppend carries the leader's stream from Offset. A follower whose
	// position is Offset appends Data (none for a heartbeat or a position
	// probe) and acks its new position; any other position is refused with
	// the follower's own. With Reset set the follower first rotates its
	// store behind Snapshot (possibly nil) and adopts Offset as its
	// position, so a reset is accepted wherever the follower stands.
	RepAppend RepType = iota + 1
	// RepVoteReq asks for a vote in Term: granted iff the term is newer and
	// the candidate's stream position is at least the voter's.
	RepVoteReq
	// RepFetch asks a peer for its journal bytes from Offset —
	// the catch-up path of a candidate whose vote was denied on log length.
	RepFetch
)

// String returns the message kind name.
func (t RepType) String() string {
	switch t {
	case RepAppend:
		return "append"
	case RepVoteReq:
		return "vote-req"
	case RepFetch:
		return "fetch"
	default:
		return fmt.Sprintf("RepType(%d)", uint8(t))
	}
}

// MaxRepFrame bounds one replication frame's declared size. Reset frames
// carry whole service snapshots, so the cap is far above the client-facing
// MaxFrame; anything larger is still treated as corruption.
const MaxRepFrame = 1 << 26

// RepMsg is one replica-to-replica message (leader→follower appends,
// candidate→peer votes and fetches).
type RepMsg struct {
	Type RepType
	// Term is the sender's current term; receivers holding a newer term
	// refuse the message (and leaders seeing the refusal step down).
	Term uint64
	// From is the sending replica's id.
	From int

	// Offset is the stream position the payload starts at (RepAppend; on a
	// reset, the new segment's base), the position to read from (RepFetch),
	// or the candidate's stream position (RepVoteReq).
	Offset int64
	// Data is the journal byte payload (RepAppend; empty for a heartbeat or
	// a position probe).
	Data []byte
	// Snapshot is the new segment's snapshot bytes (a reset RepAppend; nil
	// for a snapshot-less segment).
	Snapshot []byte
	// Reset marks an append that starts a new segment at Offset behind
	// Snapshot before it appends Data.
	Reset bool
}

// RepAck is the reply to any RepMsg.
type RepAck struct {
	// OK reports acceptance. A refusal carries the responder's Term (the
	// fencing signal) and, for votes, its Offset (the catch-up hint).
	OK bool
	// Term is the responder's current term after processing the message.
	Term uint64
	// Offset is the responder's stream position after an append (on a
	// refusal, where it stands) and in its reply to a vote; on a fetch
	// reply, the base position of the returned Data.
	Offset int64
	// Data is the requested journal bytes (RepFetch replies).
	Data []byte
	// Snapshot and Reset, on a RepFetch reply, mean what they mean on a
	// RepAppend: when the requested offset predates the responder's
	// retained segment, it returns its segment (Snapshot, and Data from the
	// segment base in Offset) with Reset set.
	Snapshot []byte
	Reset    bool
	// Err describes a structural failure (a store error).
	Err string
}

// NewRepStreamDecoder binds a stream decoder to one replica link for the
// connection's life: frames up to MaxRepFrame, read from r (prefer a
// *bufio.Reader). A frame above MaxFrame is read into a buffer of its own,
// so a snapshot is not kept for the rest of the connection.
func NewRepStreamDecoder(r io.Reader) *StreamDecoder {
	return newStreamDecoder(r, MaxRepFrame)
}

// EncodeRep writes msg as one frame on the stream.
func (e *StreamEncoder) EncodeRep(msg *RepMsg) error {
	if e.err != nil {
		return e.err
	}
	size := msg.size()
	return e.flush(msg.appendTo(e.begin(size)), size)
}

// EncodeRepAck writes ack as one frame on the stream.
func (e *StreamEncoder) EncodeRepAck(ack *RepAck) error {
	if e.err != nil {
		return e.err
	}
	size := ack.size()
	return e.flush(ack.appendTo(e.begin(size)), size)
}

// DecodeRep reads one replication message from the stream into msg,
// zeroing it first, except that the new message's Data is copied into the
// buffer msg.Data already holds: a follower copies each append's payload
// out before reading the next, and need not allocate one per frame.
func (d *StreamDecoder) DecodeRep(msg *RepMsg) error {
	*msg = RepMsg{Data: msg.Data[:0]}
	p, err := d.next(kindRep)
	if err != nil {
		return err
	}
	msg.parse(&p)
	return d.done(&p)
}

// DecodeRepAck reads one replication ack from the stream into ack, zeroing
// it first.
func (d *StreamDecoder) DecodeRepAck(ack *RepAck) error {
	*ack = RepAck{}
	p, err := d.next(kindRepAck)
	if err != nil {
		return err
	}
	ack.parse(&p)
	return d.done(&p)
}

package repro

import "repro/internal/wire"

// The public error contract of the networked billboard API. These are the
// terminal conditions a client cannot retry its way out of; everything else
// the transport machinery handles internally (reconnect, session resume,
// request dedup). Match with errors.Is — the concrete error always carries
// call context around the sentinel:
//
//	c, err := repro.Dial(ctx, addr, player, token)
//	switch {
//	case errors.Is(err, repro.ErrServerClosed):   // endpoint down or unreachable
//	case errors.Is(err, repro.ErrSessionExpired): // lease lapsed; state is gone
//	case errors.Is(err, repro.ErrBarrierDeadline): // expelled as a straggler
//	}
var (
	// ErrSessionExpired reports that the server no longer holds the
	// client's session: its lease lapsed (SessionGrace elapsed while
	// disconnected) or the server restarted without durable state. The
	// client's votes and dedup window are gone; the caller must dial a
	// fresh client and rejoin.
	ErrSessionExpired = wire.ErrSessionExpired

	// ErrServerClosed reports a dead endpoint: the dial (or a mid-call
	// reconnect) exhausted its retries without ever completing a handshake
	// on its final attempt. Best-effort classification — a partitioned but
	// living server is indistinguishable from a closed one.
	ErrServerClosed = wire.ErrServerClosed

	// ErrBarrierDeadline reports that the server's round deadline expelled
	// the player (force-done): it stalled a round past BarrierDeadline while
	// every other active player had finished. Only the sync-mode policy
	// expels; an epoch-mode server seals past stragglers and keeps them.
	// The session is terminated; later calls under it fail.
	ErrBarrierDeadline = wire.ErrBarrierDeadline
)

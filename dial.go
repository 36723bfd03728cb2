package repro

import (
	"context"

	"repro/internal/client"
)

// This file is the options-based entry point to the networked billboard:
//
//	c, err := repro.Dial(ctx, addr, player, token,
//		repro.WithRetries(16),
//		repro.WithMetrics(reg))
//
// The context cancels the dial and every later reconnect/backoff loop on
// the returned client. This is the one supported constructor; the legacy
// deprecated dial wrappers are gone.

// DialOption and its constructors live in options.go with the rest of the
// unified option layer: the transport knobs (WithRetries, WithBackoff,
// WithCallTimeout, WithBarrierTimeout, WithDialer, WithClientSeed) plus the
// shared WithMetrics and WithClientOptions.

// Dial connects and authenticates to a billboard server as the given
// player. With no options it uses sane fault-tolerance defaults and no
// metrics. The context bounds the dial's retry/backoff loop and stays
// attached to the client, cancelling every later reconnect and backoff
// sleep; pass context.Background() when no cancellation is needed. A dial
// that exhausts its retries without completing a handshake returns an
// error matching ErrServerClosed.
func Dial(ctx context.Context, addr string, player int, token string, opts ...DialOption) (*BillboardClient, error) {
	var o ClientOptions
	for _, opt := range opts {
		opt.applyDial(&o)
	}
	return client.DialContext(ctx, addr, player, token, o)
}

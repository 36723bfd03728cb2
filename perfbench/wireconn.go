package main

import (
	"net"
	"sync/atomic"
)

// wireCounter totals the bytes moved in each direction, and the write
// calls made, on every connection it wraps. Installed as the swarm's
// ClientOptions.Dialer in traced searches only.
type wireCounter struct {
	bytesIn, bytesOut, writes atomic.Int64
}

// dial is a client.Options.Dialer that counts the connection it opens.
func (w *wireCounter) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return w.wrap(c), nil
}

func (w *wireCounter) wrap(c net.Conn) net.Conn { return &countedConn{Conn: c, w: w} }

type countedConn struct {
	net.Conn
	w *wireCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytesIn.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.bytesOut.Add(int64(n))
	c.w.writes.Add(1)
	return n, err
}

package main

import (
	"io"
	"net"
	"testing"
)

func TestWireCounterExactOverPipe(t *testing.T) {
	client, peer := net.Pipe()
	var w wireCounter
	conn := w.wrap(client)
	defer conn.Close()
	defer peer.Close()

	writes := [][]byte{[]byte("hello"), make([]byte, 4096), {0x1}}
	reply := make([]byte, 777)
	done := make(chan error, 1)
	go func() {
		for _, p := range writes {
			if _, err := io.ReadFull(peer, make([]byte, len(p))); err != nil {
				done <- err
				return
			}
		}
		_, err := peer.Write(reply)
		done <- err
	}()

	var out int64
	for _, p := range writes {
		n, err := conn.Write(p)
		if err != nil {
			t.Fatal(err)
		}
		out += int64(n)
	}
	if _, err := io.ReadFull(conn, make([]byte, len(reply))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := w.bytesOut.Load(); got != out || got != 5+4096+1 {
		t.Errorf("bytes out = %d, want %d", got, 5+4096+1)
	}
	if got := w.writes.Load(); got != int64(len(writes)) {
		t.Errorf("writes = %d, want %d", got, len(writes))
	}
	if got := w.bytesIn.Load(); got != int64(len(reply)) {
		t.Errorf("bytes in = %d, want %d", got, len(reply))
	}
}

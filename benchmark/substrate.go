package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// The substrates are what the paths are built on, driven bare: one round trip
// between two goroutines over buffered channels (under inproc, and under the
// simulation engine's process switch), one request/reply over a loopback TCP
// connection (under tcpnet), one sequence-locked read of a word in shared
// memory (under the one-sided window). None of them is code of this
// repository, so a change to the repository moves only the other side of
// overhead_x: how many substrate operations a DSE operation costs.

// shmWords is words in memory that both sides can address, guarded by a
// sequence lock so that a read is never torn.
type shmWords struct {
	seq  atomic.Uint64
	vals []atomic.Int64
}

func newShmWords(n int) *shmWords {
	m := &shmWords{vals: make([]atomic.Int64, n)}
	for i := range m.vals {
		m.vals[i].Store(int64(i))
	}
	return m
}

func (m *shmWords) read(i int) int64 {
	for {
		s := m.seq.Load()
		v := m.vals[i].Load()
		if s&1 == 0 && m.seq.Load() == s {
			return v
		}
	}
}

// chanEcho is two goroutines ping-ponging over buffered channels.
type chanEcho struct {
	req, resp chan int64
	wg        sync.WaitGroup
}

func newChanEcho() *chanEcho {
	e := &chanEcho{req: make(chan int64, 1), resp: make(chan int64, 1)}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for v := range e.req {
			e.resp <- v
		}
	}()
	return e
}

func (e *chanEcho) roundTrip(v int64) int64 {
	e.req <- v
	return <-e.resp
}

func (e *chanEcho) stop() {
	close(e.req)
	e.wg.Wait()
}

// tcpEcho is a raw loopback TCP connection pair (TCP_NODELAY, Go's default)
// with an echo goroutine on the far end. A request is a 48-byte frame, the
// size of a wire header, whose first four bytes give the reply size.
type tcpEcho struct {
	ln     net.Listener
	client net.Conn
	wg     sync.WaitGroup
	reqBuf [tcpReqBytes]byte
	reply  []byte
}

const (
	tcpReqBytes   = 48  // a scalar request or reply: wire.HeaderSize
	tcpBlockReply = 560 // a 64-word block reply: header + 64*8
)

func newTCPEcho() (*tcpEcho, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp echo: listen: %w", err)
	}
	e := &tcpEcho{ln: ln, reply: make([]byte, tcpBlockReply)}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req [tcpReqBytes]byte
		out := make([]byte, tcpBlockReply)
		for {
			if _, err := io.ReadFull(conn, req[:]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(req[:4])
			if n > tcpBlockReply {
				return
			}
			if _, err := conn.Write(out[:n]); err != nil {
				return
			}
		}
	}()
	e.client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		e.wg.Wait()
		return nil, fmt.Errorf("tcp echo: dial: %w", err)
	}
	return e, nil
}

// roundTrip sends one request and reads a reply of replyBytes.
func (e *tcpEcho) roundTrip(replyBytes int) error {
	binary.LittleEndian.PutUint32(e.reqBuf[:4], uint32(replyBytes))
	if _, err := e.client.Write(e.reqBuf[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(e.client, e.reply[:replyBytes])
	return err
}

func (e *tcpEcho) stop() {
	e.client.Close()
	e.ln.Close()
	e.wg.Wait()
}

// Package mpi is a small in-process message-passing substrate: a World of
// ranks connected by buffered channels, with tagged point-to-point
// send/receive, including out-of-order tag matching and a non-blocking
// receive.
//
// The paper uses MPI (OpenMPI 4.1.1) as the job substrate and as the
// transport that partitioned communication (internal/partcomm) targets.
// Rank-local thread timing is independent of the transport, so an
// in-process substrate preserves the studied behaviour while keeping the
// repository self-contained (see DESIGN.md).
package mpi

import (
	"fmt"
	"sync"
)

// Message is a tagged payload between ranks.
type Message struct {
	Src  int
	Tag  int
	Data []byte
}

// World is a set of ranks with all-to-all channels.
type World struct {
	size  int
	chans [][]chan Message // chans[src][dst]
}

// chanCapacity bounds in-flight messages per (src, dst) pair. Partitioned
// sends are eager, so the capacity must comfortably exceed the partition
// count of one transfer.
const chanCapacity = 4096

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{size: n}
	w.chans = make([][]chan Message, n)
	for s := 0; s < n; s++ {
		w.chans[s] = make([]chan Message, n)
		for d := 0; d < n; d++ {
			w.chans[s][d] = make(chan Message, chanCapacity)
		}
	}
	return w
}

// Comm returns rank's communicator handle.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d outside world of %d", rank, w.size))
	}
	return &Comm{world: w, rank: rank, unexpected: make(map[key][]Message)}
}

// Run spawns one goroutine per rank executing body and waits for all of
// them; the first non-nil error is returned.
func (w *World) Run(body func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type key struct {
	src, tag int
}

// Comm is one rank's endpoint. A Comm must be used from a single
// goroutine (like an MPI rank); the World's channels provide the
// cross-rank synchronisation.
type Comm struct {
	world      *World
	rank       int
	unexpected map[key][]Message
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Send delivers data to dst with the given tag. It never blocks under the
// substrate's channel capacity; exceeding it (more than chanCapacity
// unconsumed messages to one peer) is a deadlock in the caller's protocol
// and panics rather than hanging silently.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	msg := Message{Src: c.rank, Tag: tag, Data: data}
	select {
	case c.world.chans[c.rank][dst] <- msg:
	default:
		panic(fmt.Sprintf("mpi: send buffer full (%d messages) from %d to %d — protocol deadlock", chanCapacity, c.rank, dst))
	}
}

// Recv blocks until a message from src with the given tag arrives.
// Messages with other tags from the same source are buffered for later
// Recv calls (MPI's unexpected-message queue).
func (c *Comm) Recv(src, tag int) Message {
	k := key{src, tag}
	if q := c.unexpected[k]; len(q) > 0 {
		msg := q[0]
		c.unexpected[k] = q[1:]
		return msg
	}
	for {
		msg := <-c.world.chans[src][c.rank]
		if msg.Tag == tag {
			return msg
		}
		mk := key{src, msg.Tag}
		c.unexpected[mk] = append(c.unexpected[mk], msg)
	}
}

// TryRecv is a non-blocking Recv; ok reports whether a matching message
// was available.
func (c *Comm) TryRecv(src, tag int) (Message, bool) {
	k := key{src, tag}
	if q := c.unexpected[k]; len(q) > 0 {
		msg := q[0]
		c.unexpected[k] = q[1:]
		return msg, true
	}
	for {
		select {
		case msg := <-c.world.chans[src][c.rank]:
			if msg.Tag == tag {
				return msg, true
			}
			mk := key{src, msg.Tag}
			c.unexpected[mk] = append(c.unexpected[mk], msg)
		default:
			return Message{}, false
		}
	}
}

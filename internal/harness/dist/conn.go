package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"jrs/internal/harness/chaos"
)

// frameConn is a framed connection with optional deterministic network
// chaos applied to every frame it sends or receives: drops (the
// connection is hard-closed, as a real partition would), delays, and
// duplications. Chaos lives on the worker side of the link, so one
// injector covers both directions of worker↔coordinator traffic.
type frameConn struct {
	c   net.Conn
	br  *bufio.Reader
	inj *chaos.NetInjector
	tag string // chaos event namespace (the worker name)

	wmu  sync.Mutex
	wseq uint64
	rseq uint64

	// one pending frame: a chaos-duplicated *received* frame is
	// delivered twice, exercising the receiver's stale-response filter.
	pendSet bool
	pendT   MsgType
	pendP   []byte
}

// ioTimeout bounds one frame read, so a silently dead coordinator can't
// hang a worker forever.
const ioTimeout = 2 * time.Minute

func newFrameConn(c net.Conn, inj *chaos.NetInjector, tag string) *frameConn {
	return &frameConn{c: c, br: bufio.NewReader(c), inj: inj, tag: tag}
}

// write sends one frame, subject to chaos. A dropped frame closes the
// connection: the peer sees a reset, the caller re-dials — a clean
// model of a mid-send partition.
func (f *frameConn) write(t MsgType, msg any) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.inj != nil {
		f.wseq++
		fault := f.inj.Frame(fmt.Sprintf("%s/send/%d", f.tag, f.wseq))
		if fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		if fault.Drop {
			// Fire-and-forget frames are lost silently — the
			// interesting failure is the coordinator *missing* the
			// heartbeat, not the connection dying. Request/response
			// frames can't be "lost" on a healthy TCP stream, so a
			// dropped one models a partition: hard-close.
			if t == MsgHeartbeat {
				return nil
			}
			f.c.Close()
			return fmt.Errorf("dist: chaos dropped outbound %s frame", t)
		}
		if fault.Dup {
			if err := WriteFrame(f.c, t, msg); err != nil {
				return err
			}
		}
	}
	return WriteFrame(f.c, t, msg)
}

// read receives one frame, subject to chaos on the receive side.
func (f *frameConn) read() (MsgType, []byte, error) {
	if f.pendSet {
		f.pendSet = false
		return f.pendT, f.pendP, nil
	}
	f.c.SetReadDeadline(time.Now().Add(ioTimeout))
	t, p, err := ReadFrame(f.br)
	if err != nil {
		return t, p, err
	}
	if f.inj != nil {
		f.rseq++
		fault := f.inj.Frame(fmt.Sprintf("%s/recv/%d", f.tag, f.rseq))
		if fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		if fault.Drop {
			f.c.Close()
			return 0, nil, fmt.Errorf("dist: chaos dropped inbound %s frame", t)
		}
		if fault.Dup {
			f.pendSet, f.pendT, f.pendP = true, t, p
		}
	}
	return t, p, nil
}

// awaitSeq reads frames until one whose payload's Seq matches want,
// discarding stale responses (answers to chaos-duplicated earlier
// requests that the coordinator saw twice).
func (f *frameConn) awaitSeq(want uint64) (MsgType, []byte, error) {
	for {
		t, p, err := f.read()
		if err != nil {
			return 0, nil, err
		}
		var hdr struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(p, &hdr); err != nil {
			return 0, nil, fmt.Errorf("%w: response payload: %v", ErrFrame, err)
		}
		if hdr.Seq != want {
			continue // stale response from a duplicated request
		}
		return t, p, nil
	}
}

package dist

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Submit dials a coordinator, submits one grid and waits for its merged
// output. timeout bounds the whole exchange (0 = no deadline — grids
// can legitimately run for a long time). The returned Output carries
// the rendered grid (byte-identical to a local serial run), the
// keep-going report, and the exit code the caller should propagate.
//
// A connection reset mid-wait means the coordinator died; the caller
// decides whether to resubmit (a coordinator restarted on the same
// cache directory serves every committed cell from the result cache,
// so a resubmitted grid only pays for the cells the crash lost).
func Submit(addr string, grid GridSpec, timeout time.Duration) (Output, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return Output{}, fmt.Errorf("dist: connect %s: %w", addr, err)
	}
	defer conn.Close()
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	const seq = 1
	if err := WriteFrame(conn, MsgSubmit, SubmitReq{Seq: seq, Grid: grid}); err != nil {
		return Output{}, fmt.Errorf("dist: submit: %w", err)
	}
	br := bufio.NewReader(conn)
	for {
		t, payload, err := ReadFrame(br)
		if err != nil {
			return Output{}, fmt.Errorf("dist: awaiting output: %w", err)
		}
		if t != MsgOutput {
			return Output{}, fmt.Errorf("%w: expected output, got %s", ErrFrame, t)
		}
		var out Output
		if err := DecodeInto(payload, &out); err != nil {
			return Output{}, err
		}
		if out.Seq != seq {
			continue
		}
		return out, nil
	}
}
